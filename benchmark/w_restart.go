package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	phoenix "repro"
	"repro/internal/obs"
)

// restart-mem and restart-lazy-mem: paper Table 7, what a restart
// costs. Set-up builds one crashed image: process srv hosts 64 Counter
// contexts and serves Add(1) calls whose context a seeded generator
// picks; halfway through, the even contexts save their state and the
// process takes a checkpoint; then it crashes and its directory is
// copied aside. Each measured op restores the pristine image and
// restarts the process — eagerly (replay everything, then serve) or
// lazily (serve after Pass 1, replay a context when first touched,
// drain the rest in the background) — makes one call to a seeded
// context, waits for the drain, and compares every context's count
// with the model. State lives on a memory-backed file system: reading,
// decoding, dispatching and replaying do the work.

const restartContexts = 64

type restartEnv struct {
	img, live string
	cfg       phoenix.Config
	model     [restartContexts]int
	gen       *lcg // picks each restart's first-touched context
	logRel    string
	lastStats phoenix.RecoveryStats
}

// restartSample is one measured restart.
type restartSample struct {
	startMs, ttfcMs, drainMs float64
	cpu                      time.Duration
	calibNs                  float64 // the reference's cost just before the restart
	mallocs                  uint64
	log                      logTotals
	ok                       bool
}

func ctxName(i int) string { return fmt.Sprintf("C%d", i) }

// counterObjs maps the names of n Counter contexts to replay objects.
func counterObjs(n int) map[string]any {
	m := make(map[string]any, n)
	for i := 0; i < n; i++ {
		m[ctxName(i)] = &Counter{}
	}
	return m
}

func (e *restartEnv) close() {}

func setupRestart(rc *runCtx, dir string, mode phoenix.RecoveryMode) (*restartEnv, error) {
	e := &restartEnv{
		img:  filepath.Join(dir, "img"),
		live: filepath.Join(dir, "live"),
		cfg:  phoenix.Config{LogMode: phoenix.LogOptimized, SpecializedTypes: true},
		gen:  newLCG(rc.seed ^ 0x9e3779b97f4a7c15),
	}
	e.cfg.Recovery.Mode = mode
	calls := 6000
	if rc.quick {
		calls = 600
	}
	u, err := rc.universe(e.live, nil, nil)
	if err != nil {
		return nil, err
	}
	m, err := u.AddMachine("evo2")
	if err != nil {
		return nil, err
	}
	p, err := m.StartProcess("srv", e.cfg)
	if err != nil {
		return nil, err
	}
	var refs [restartContexts]*phoenix.Ref
	var handles [restartContexts]*phoenix.Handle
	for i := range refs {
		if handles[i], err = p.Create(ctxName(i), &Counter{}); err != nil {
			return nil, err
		}
		refs[i] = u.ExternalRef(handles[i].URI())
	}
	pick := newLCG(rc.seed)
	for c := 0; c < calls; c++ {
		if c == calls/2 {
			for i := 0; i < restartContexts; i += 2 {
				if err := handles[i].SaveState(); err != nil {
					return nil, err
				}
			}
			if err := p.Checkpoint(); err != nil {
				return nil, err
			}
		}
		i := pick.intn(restartContexts)
		e.model[i]++
		res, err := refs[i].Call("Add", 1)
		if err != nil || res[0] != any(e.model[i]) {
			return nil, fmt.Errorf("image call %d: result %v, error %v", c, res, err)
		}
	}
	if e.logRel, err = filepath.Rel(e.live, p.LogDir()); err != nil {
		return nil, err
	}
	p.Crash()
	u.Shutdown()
	if err := copyTree(e.live, e.img); err != nil {
		return nil, err
	}
	// One unmeasured restart warms the code paths and the page cache.
	if s := e.restart(rc); !s.ok {
		return nil, fmt.Errorf("warm-up restart did not recover the model state")
	}
	return e, nil
}

// restart restores the image, restarts srv, touches one context,
// drains, verifies, and discards the restarted process.
func (e *restartEnv) restart(rc *runCtx) (s restartSample) {
	if err := os.RemoveAll(e.live); err != nil {
		return s
	}
	if err := copyTree(e.img, e.live); err != nil {
		return s
	}
	u, err := rc.universe(e.live, nil, nil)
	if err != nil {
		return s
	}
	defer u.Shutdown()
	m, err := u.AddMachine("evo2")
	if err != nil {
		return s
	}
	// Odd contexts saved no state, so all of them replay from their
	// creation: touching one of those keeps the first call's wait
	// unimodal.
	touch := 2*e.gen.intn(restartContexts/2) + 1
	ref := u.ExternalRef(phoenix.MakeURI("evo2", "srv", ctxName(touch)))
	s.calibNs = calibrate(restartCalib)

	m0, c0 := mallocs(), cpuTime()
	t0 := time.Now()
	p, err := m.StartProcess("srv", e.cfg)
	if err != nil {
		return s
	}
	defer p.Crash()
	s.startMs = msSince(t0)
	sp := tracer.begin(spanCall)
	res, err := ref.Call("Add", 1)
	tracer.end(sp)
	s.ttfcMs = msSince(t0)
	derr := p.DrainRecovery()
	s.drainMs = msSince(t0)
	s.cpu, s.mallocs = cpuTime()-c0, mallocs()-m0
	s.log = sumLogStats([]*phoenix.Process{p})

	s.ok = err == nil && derr == nil && len(res) == 1 && res[0] == any(e.model[touch]+1)
	for i := 0; i < restartContexts && s.ok; i++ {
		want := e.model[i]
		if i == touch {
			want++
		}
		h, found := p.Lookup(ctxName(i))
		s.ok = found && h.Object().(*Counter).N == want
	}
	stats, recovered := p.LastRecovery()
	s.ok = s.ok && recovered && stats.CallsReplayed > 0
	e.lastStats = stats
	if s.ok {
		// The restart's own registry must show the recovery it ran.
		snap := u.Metrics().Snapshot()
		s.ok = snap.Counter(obs.RecoveryRuns) > 0 && snap.Counter(obs.ReplayedCalls) > 0
	}
	return s
}

// restartCalib is the calibration slice before each restart.
const restartCalib = 40 * time.Millisecond

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func runRestartEager(rc *runCtx) (*result, error) {
	return runRestart(rc, "restart-mem", phoenix.RecoveryEager)
}

func runRestartLazy(rc *runCtx) (*result, error) {
	return runRestart(rc, "restart-lazy-mem", phoenix.RecoveryLazy)
}

func runRestart(rc *runCtx, name string, mode phoenix.RecoveryMode) (*result, error) {
	res := newResult(rc, name)
	lazy := mode == phoenix.RecoveryLazy
	e, setup, err := setupBest(rc, 3, true, func(dir string) (*restartEnv, error) { return setupRestart(rc, dir, mode) }, (*restartEnv).close)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)

	c0 := seamCounts{}
	if rc.traced {
		c0 = rc.seams.counts()
		rc.rec.on.Store(true)
	}
	var samples []restartSample
	begin := time.Now()
	for time.Since(begin).Seconds() < rc.seconds || len(samples) < 3 {
		s := e.restart(rc)
		samples = append(samples, s)
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	wall := time.Since(begin)
	if rc.traced {
		rc.rec.on.Store(false)
	}

	// What a client waits for. The median figure is the wait of the
	// first caller: the whole eager restart, or the lazy restart up to
	// its first answered call. The tail figure is the wait of the
	// unluckiest caller, whose context is the last to be replayed: when
	// the background drain is complete (for an eager restart, hardly
	// later than the first). A restart counts as complete then too. All
	// of it is CPU time, reported at nominal host speed.
	var lat, ttfc, drain, cpu, allocs, calib []float64
	var log logTotals
	for _, s := range samples {
		if lazy {
			lat = append(lat, s.ttfcMs)
		} else {
			lat = append(lat, s.startMs)
		}
		ttfc = append(ttfc, s.ttfcMs)
		drain = append(drain, s.drainMs)
		cpu = append(cpu, float64(s.cpu.Microseconds()))
		allocs = append(allocs, float64(s.mallocs))
		calib = append(calib, s.calibNs)
		log = log.add(s.log)
	}
	n := float64(len(samples))
	speed := hostSpeed(minOf(calib))
	res.Samples["ops"] = n
	res.Samples["host_speed"] = speed
	if !rc.traced {
		res.set("op_p50_ms", floorOf(lat).over(speed))
		res.set("op_tail_ms", floorOf(drain).over(speed))
		res.set("ops_per_s", exact(1e3/minOf(drain)).times(speed))
		res.set("cpu_us_per_op", floorOf(cpu).over(speed))
		res.set("allocs_per_op", medianOf(allocs))
		res.set("log_bytes_per_op", exact(float64(log.bytes)/n))
		res.set("forces_per_op", exact(float64(log.forces)/n))
		res.Samples["raw_op_p50_ms"] = minOf(lat)
		return res, nil
	}

	st := e.lastStats
	res.set("core.recovery.pass1_ms", exact(float64(st.Pass1Duration)/float64(time.Millisecond)))
	res.set("core.recovery.pass2_ms", exact(float64(st.Pass2Duration)/float64(time.Millisecond)))
	res.set("core.recovery.ttfc_ms", floorOf(ttfc).over(speed))
	res.set("core.recovery.drain_ms", floorOf(drain).over(speed))
	if st.CallsReplayed > 0 {
		res.set("core.recovery.replay_us_per_call", exact(minOf(drain)/speed*1e3/float64(st.CallsReplayed)))
		res.set("core.recovery.scanned_per_replayed", exact(float64(st.RecordsScanned)/float64(st.CallsReplayed)))
	}
	res.set("core.recovery.calls_replayed", exact(float64(st.CallsReplayed)))
	res.set("core.recovery.calls_suppressed", exact(float64(st.CallsSuppressed)))
	res.set("core.recovery.contexts_on_demand", exact(float64(st.ContextsOnDemand)))
	fillLayers(rc, res, layerInput{
		ops: len(samples), wall: wall,
		tracedMeanMs: mean(drain),
		spans:        rc.rec.reduce(), hostSpeed: speed,
		counts: rc.seams.counts().sub(c0), log: log,
		replayObjs: counterObjs(restartContexts),
		stateObj:   &Counter{N: e.model[0]},
		scanDir:    filepath.Join(e.img, e.logRel),
	})
	return res, nil
}
