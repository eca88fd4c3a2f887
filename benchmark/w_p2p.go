package main

import (
	"fmt"

	phoenix "repro"
)

// p2p-mem: paper Table 4, row "Persistent→Persistent (optimized)". An
// external driver calls Forwarder.Forward in process cli on machine
// evo1, which calls Counter.Add in process srv on evo2. Optimized
// logging with specialized types, one log stream, no group commit, an
// in-memory network with no injected latency and a memory-backed state
// directory: nothing sleeps, so the call is CPU-bound.

type p2pEnv struct {
	u      *phoenix.Universe
	pc, ps *phoenix.Process
	ref    *phoenix.Ref
	gen    *lcg
	model  int // what the Counter must hold
}

func p2pConfig() phoenix.Config {
	return phoenix.Config{LogMode: phoenix.LogOptimized, SpecializedTypes: true}
}

// call performs one Forward with a seeded addend and checks the answer
// against the model.
func (e *p2pEnv) call() bool {
	d := 1 + e.gen.intn(9)
	e.model += d
	sp := tracer.begin(spanCall)
	res, err := e.ref.Call("Forward", d)
	tracer.end(sp)
	return err == nil && len(res) == 1 && res[0] == any(e.model)
}

func (e *p2pEnv) close() {
	e.pc.Close()
	e.ps.Close()
}

func setupP2P(rc *runCtx, dir string) (*p2pEnv, error) {
	u, err := rc.universe(dir, nil, nil)
	if err != nil {
		return nil, err
	}
	mc, err := u.AddMachine("evo1")
	if err != nil {
		return nil, err
	}
	ms, err := u.AddMachine("evo2")
	if err != nil {
		return nil, err
	}
	e := &p2pEnv{u: u, gen: newLCG(rc.seed)}
	if e.pc, err = mc.StartProcess("cli", p2pConfig()); err != nil {
		return nil, err
	}
	if e.ps, err = ms.StartProcess("srv", p2pConfig()); err != nil {
		return nil, err
	}
	hs, err := e.ps.Create("Counter", &Counter{})
	if err != nil {
		return nil, err
	}
	hc, err := e.pc.Create("Fwd", &Forwarder{Server: phoenix.NewRef(hs.URI())})
	if err != nil {
		return nil, err
	}
	e.ref = u.ExternalRef(hc.URI())
	// Warm up by count, not by time, so set-up time tracks call speed.
	warm := 5000
	if rc.quick {
		warm = 200
	}
	for i := 0; i < warm; i++ {
		if !e.call() {
			return nil, fmt.Errorf("warm-up call %d failed or returned the wrong sum", i)
		}
	}
	return e, nil
}

func runP2P(rc *runCtx) (*result, error) {
	res := newResult(rc, "p2p-mem")
	e, setup, err := setupBest(rc, 5, true, func(dir string) (*p2pEnv, error) { return setupP2P(rc, dir) }, (*p2pEnv).close)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	runClosed(rc, res, closedSpec{
		op:       e.call,
		procs:    []*phoenix.Process{e.pc, e.ps},
		metrics:  e.u.Metrics(),
		windows:  fastWindows,
		tailQ:    0.95,
		cpuBound: true,
		layers: layerInput{
			replayObjs: map[string]any{"Counter": &Counter{}},
			stateObj:   &Counter{N: e.model},
			scanDir:    e.ps.LogDir(),
		},
	})
	// The server's state is the sum of every addend sent.
	if h, ok := e.ps.Lookup("Counter"); !ok || h.Object().(*Counter).N != e.model {
		res.problemf("Counter state diverged from the model %d", e.model)
	}
	e.close()
	return res, nil
}
