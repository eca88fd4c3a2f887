package bench

import (
	"fmt"
	"os"
	"time"

	phoenix "repro"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/transport"
)

// env is a simulated two-machine world for micro-benchmarks: machine
// "evo1" hosts the client process, machine "evo2" the server process,
// each process logging to its own 7200-RPM simulated disk, connected by
// a latency- and jitter-injecting network.
type env struct {
	o     Options
	u     *phoenix.Universe
	clock phoenix.Clock
	mem   *transport.Mem
	rec   *phoenix.TraceRecorder // non-nil when Options.Trace
	dir   string
	own   bool // dir owned (delete on close)

	diskParams disk.SimParams
}

// envConfig shapes the simulated world.
type envConfig struct {
	// rtt is the injected network round trip (the paper measures
	// ~0.2 ms per remote call; local runs use loopback ~40 µs).
	rtt time.Duration
	// jitter randomizes message timing. (Timing jitter alone cannot
	// break rotational lockstep — the disks' waits absorb it and the
	// call cycle re-quantizes to a rotation multiple — but it is part
	// of the remote setup's realism.)
	jitter time.Duration
	// phaseNoise randomizes each disk write's rotational phase,
	// modelling the seeks and request reordering that make the
	// paper's remote runs wait the 4.17 ms average instead of a full
	// rotation per write (Section 5.2.2: "we did not see discrete
	// steps... average rotational delay of 4.17ms plus some small
	// seek times").
	phaseNoise bool
	// writeCache enables the simulated drives' write cache (paper
	// Table 6's right column).
	writeCache bool
	// hostDisk disables the disk simulation entirely (Table 7 times
	// CPU-bound replay, not media).
	hostDisk bool
	// virtualClock replaces the scaled-sleep clock with a non-sleeping
	// VirtualClock: simulated waits (rotations, commit windows, RTTs)
	// cost zero wall time and are all that model time counts, so model
	// time is exact on any host (the shape tests) and a CPU meter over
	// such an env sees pure CPU cost (the trace-overhead gate).
	virtualClock bool
}

// local/remote presets per the paper's experimental setup.
func localEnv() envConfig { return envConfig{rtt: 40 * time.Microsecond} }
func remoteEnv() envConfig {
	return envConfig{
		rtt:        200 * time.Microsecond,
		jitter:     500 * time.Microsecond,
		phaseNoise: true,
	}
}

func newEnv(o Options, ec envConfig) (*env, error) {
	e := &env{o: o, clock: disk.NewRealClock(o.Scale)}
	if ec.virtualClock {
		e.clock = disk.NewVirtualClock()
	}
	e.diskParams = disk.DefaultParams()
	e.diskParams.WriteCache = ec.writeCache

	// Each environment gets a private directory: simulated machines
	// must not see a previous measurement's logs and process tables.
	var dir string
	own := false
	if o.Dir == "" {
		d, err := os.MkdirTemp("", "phoenix-bench-*")
		if err != nil {
			return nil, err
		}
		dir, own = d, true
	} else {
		d, err := os.MkdirTemp(o.Dir, "env-*")
		if err != nil {
			return nil, err
		}
		dir, own = d, true
	}
	e.dir, e.own = dir, own

	e.mem = transport.NewMem(e.clock, ec.rtt)
	if ec.jitter > 0 {
		e.mem.SetJitter(ec.jitter, o.Seed)
	}
	// Local setup: both processes run on one machine and their log
	// files share one physical disk with adjacently allocated blocks
	// (paper footnote: "newly allocated disk blocks for the two files
	// are close enough to incur only small disk seek times"), so every
	// append chases the same log-head region and misses a full
	// rotation — one shared SimDisk models this. Remote setup: one
	// disk per machine, with per-write phase noise standing in for the
	// seeks and scheduling that give the paper's remote runs average
	// rather than full rotational delays.
	var shared disk.Model
	if !ec.hostDisk && !ec.phaseNoise {
		shared = disk.NewSimDisk(e.diskParams, e.clock)
	}
	var diskSeq int64
	diskModel := func(machine, process string) disk.Model {
		if ec.hostDisk {
			return disk.HostModel{}
		}
		if shared != nil {
			return shared
		}
		params := e.diskParams
		d := disk.NewSimDisk(params, e.clock)
		params.PhaseNoise = d.Rotation()
		diskSeq++
		params.NoiseSeed = o.Seed + diskSeq
		return disk.NewSimDisk(params, e.clock)
	}
	if o.Trace {
		// Stage histograms account to the default registry, where the
		// per-experiment snapshot diffs (and phoenix-bench -json/-trace)
		// pick them up; timestamps are model time.
		e.rec = phoenix.NewTraceRecorder(phoenix.TraceOptions{
			Name:    "bench",
			Metrics: obs.Default(),
			Now:     func() int64 { return e.clock.Now().UnixNano() },
		})
	}
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{
		Dir:       dir,
		Clock:     e.clock,
		Net:       e.mem,
		DiskModel: diskModel,
		Trace:     e.rec,
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	e.u = u
	return e, nil
}

// Close removes scratch state.
func (e *env) Close() {
	if e.own && e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// elapsed measures fn in model time.
func (e *env) elapsed(fn func() error) (time.Duration, error) {
	start := e.clock.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return e.clock.Now().Sub(start), nil
}

// perCall measures fn (which performs n calls) and returns model time
// per call.
func (e *env) perCall(n int, fn func() error) (time.Duration, error) {
	total, err := e.elapsed(fn)
	if err != nil {
		return 0, err
	}
	return total / time.Duration(n), nil
}

// benchConfig is the per-process runtime config used by micro rows.
func benchConfig(mode phoenix.LogMode, specialized bool) phoenix.Config {
	return phoenix.Config{
		LogMode:          mode,
		SpecializedTypes: specialized,
		RetryInterval:    5 * time.Millisecond,
		RetryLimit:       200,
	}
}

// startPair boots the client and server processes.
func (e *env) startPair(cfg phoenix.Config) (pc, ps *phoenix.Process, err error) {
	mc, err := e.u.AddMachine("evo1")
	if err != nil {
		return nil, nil, err
	}
	ms, err := e.u.AddMachine("evo2")
	if err != nil {
		return nil, nil, err
	}
	pc, err = mc.StartProcess("cli", cfg)
	if err != nil {
		return nil, nil, err
	}
	ps, err = ms.StartProcess("srv", cfg)
	if err != nil {
		pc.Close()
		return nil, nil, err
	}
	return pc, ps, nil
}

var procSeq int

// uniqueProc returns a fresh process name (several measurements share
// one universe directory).
func uniqueProc(prefix string) string {
	procSeq++
	return fmt.Sprintf("%s%d", prefix, procSeq)
}
