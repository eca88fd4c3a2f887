//go:build unix && perfgate

package bench

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"
)

// cpuNow reads the process's cumulative CPU time (user + system).
func cpuNow(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestTraceOverhead is the CI perf gate for the tracing tentpole: on
// the group-commit workload, enabling the flight recorder must cost
// under 5% per call. It is a timing verdict, so it is built only with
// `-tags perfgate` (make bench-smoke): on a shared 2-vCPU host the
// median itself swings by more than the budget, and `go test ./...`
// must not depend on that. TestAllocsTracedCallPath and
// TestTraceOverheadShape are the deterministic tier-1 tracing checks.
//
// Span recording is wait-free and alloc-free, so the honest number is
// noise-level — which dictates the measurement:
// cells run on a virtual clock (simulated waits are free, so the run
// is pure CPU), the meter is process CPU time (wall time over real
// syncs swings ±50% and cannot resolve a 5% budget), and the verdict
// is the median of per-round paired ratios — each round runs the two
// modes back to back, so slow environmental drift (CPU frequency,
// noisy neighbors) cancels within the pair instead of landing on one
// mode. BENCH_PR6.json records the measured trajectory.
func TestTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate is slow under -short")
	}
	o := Options{Scale: 1, Calls: 800, Concurrency: 4, Dir: t.TempDir()}.Defaults()
	ec := localEnv()
	ec.virtualClock = true
	run := func(traced bool) time.Duration {
		oo := o
		oo.Trace = traced
		runtime.GC() // start each cell with the same collector debt
		start := cpuNow(t)
		_, calls, err := runTraceOverheadCell(oo, ec, false)
		if err != nil {
			t.Fatal(err)
		}
		return (cpuNow(t) - start) / time.Duration(calls)
	}
	run(false) // discard the cold first run
	var ratios []float64
	for i := 0; i < 5; i++ {
		b := run(false)
		tr := run(true)
		ratios = append(ratios, float64(tr)/float64(b))
		t.Logf("round %d: untraced %v, traced %v (%+.2f%%)",
			i, b, tr, 100*(float64(tr)/float64(b)-1))
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("median CPU overhead per call: %+.2f%%", 100*overhead)
	if overhead > 0.05 {
		t.Errorf("tracing overhead %.2f%% exceeds the 5%% gate", 100*overhead)
	}
}
