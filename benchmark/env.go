package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	phoenix "repro"
	"repro/internal/disk"
)

// runCtx is what one workload run is given.
type runCtx struct {
	seed    uint64
	seconds float64 // measured interval
	traced  bool
	quick   bool
	dir     string // private state directory, removed after the run

	// Traced runs only.
	rec   *recorder
	seams *seams
}

// result is what a workload run reports.
type result struct {
	Workload  string
	Traced    bool
	Seconds   float64
	Attempted int
	Failed    int
	Problems  []string // why the run is not correct; empty means correct
	Metrics   map[string]estimate
	// Samples records sample counts and the percentile behind
	// op_tail_ms, so a reader can judge what each figure rests on.
	Samples map[string]float64
}

func newResult(rc *runCtx, name string) *result {
	return &result{
		Workload: name, Traced: rc.traced, Seconds: rc.seconds,
		Metrics: map[string]estimate{}, Samples: map[string]float64{},
	}
}

func (r *result) problemf(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, e estimate) { r.Metrics[name] = e }

// setupBest runs setup n times (once on -quick), tearing down all but the last,
// and returns the last environment with the set-up time: the quickest
// of the set-ups (a single one is one sample of a short interval, too
// noisy to hold a later change to a bound), at nominal host speed when
// set-up is CPU-bound, from a calibration slice after each.
func setupBest[E any](rc *runCtx, n int, cpuBound bool, setup func(dir string) (E, error), teardown func(E)) (E, estimate, error) {
	var env E
	var secs, calib []float64
	if rc.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		e, err := setup(dir)
		if err != nil {
			return env, estimate{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if cpuBound {
			calib = append(calib, calibrate(setupCalib))
		}
		if i < n-1 {
			teardown(e)
			os.RemoveAll(dir)
			continue
		}
		env = e
	}
	est := floorOf(secs)
	if cpuBound {
		est = est.over(hostSpeed(minOf(calib)))
	}
	return env, est, nil
}

// setupCalib is the calibration slice after each CPU-bound set-up.
const setupCalib = 60 * time.Millisecond

// universe builds a world under dir. Traced runs route its network and
// disk models through the seams.
func (rc *runCtx) universe(dir string, sim *phoenix.SimDisk, clock phoenix.Clock) (*phoenix.Universe, error) {
	cfg := phoenix.UniverseConfig{
		Dir:     dir,
		Clock:   clock,
		Metrics: phoenix.NewMetricsRegistry(),
	}
	var model phoenix.DiskModel // nil: the host model, log at file-system speed
	if sim != nil {
		model = sim
	}
	if rc.traced {
		cfg.Net = rc.seams.network(phoenix.NewMemNetwork(clock, 0))
		if model == nil {
			model = disk.HostModel{}
		}
		model = rc.seams.diskModel(model)
	}
	if model != nil {
		cfg.DiskModel = func(machine, process string) phoenix.DiskModel { return model }
	}
	return phoenix.NewUniverse(cfg)
}

// newSimDisk is the paper's Table-3 disk — 7200 RPM, write cache off,
// no phase noise — on a real-time clock: the deterministic device the
// -sim workloads share. hot puts it on a virtual clock instead, on
// which a rotation costs no wall time.
func newSimDisk(hot bool) (*phoenix.SimDisk, phoenix.Clock) {
	var clock phoenix.Clock = phoenix.NewRealClock(1)
	if hot {
		clock = phoenix.NewVirtualClock()
	}
	return phoenix.NewSimDisk(phoenix.DefaultDiskParams(), clock), clock
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// logTotals sums the recovery-log counters over processes.
type logTotals struct {
	appends, forces, bytes, appendBusy, syncBusy int64
}

func sumLogStats(procs []*phoenix.Process) logTotals {
	var t logTotals
	for _, p := range procs {
		s := p.LogStats()
		t.appends += s.Appends
		t.forces += s.Forces
		t.bytes += s.BytesWritten
		t.appendBusy += s.AppendBusyNanos
		t.syncBusy += s.SyncBusyNanos
	}
	return t
}

func (a logTotals) add(b logTotals) logTotals {
	return logTotals{
		appends: a.appends + b.appends, forces: a.forces + b.forces, bytes: a.bytes + b.bytes,
		appendBusy: a.appendBusy + b.appendBusy, syncBusy: a.syncBusy + b.syncBusy,
	}
}

func (a logTotals) sub(b logTotals) logTotals {
	return logTotals{
		appends: a.appends - b.appends, forces: a.forces - b.forces, bytes: a.bytes - b.bytes,
		appendBusy: a.appendBusy - b.appendBusy, syncBusy: a.syncBusy - b.syncBusy,
	}
}

// requireMoved fails the run when a counter behind one of its rows did
// not move over the measured interval: a harness whose log or recovery
// is a stub measures nothing.
func requireMoved(res *result, diff phoenix.MetricsSnapshot, names ...string) {
	for _, n := range names {
		if diff.Counter(n) <= 0 {
			res.problemf("obs counter %s did not move over the measured interval", n)
		}
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// chooseBaseDir picks where state directories go: the -dir flag, else
// a memory-backed file system so that the -mem workloads time CPU work
// and not the host's fsync, else the working directory. device names
// the choice in the output.
func chooseBaseDir(flagDir string) (base, device string) {
	if flagDir != "" {
		return flagDir, "flag"
	}
	const shm = "/dev/shm"
	if probe, err := os.MkdirTemp(shm, "phoenix-bench-probe-*"); err == nil {
		os.Remove(probe)
		return shm, "shm"
	}
	return ".", "hostfs"
}
