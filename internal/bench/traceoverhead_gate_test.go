//go:build unix && perfgate

package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	phoenix "repro"
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
// must not depend on that. TestAllocsTracedCallPath and internal/core's
// TestCrashCrossingTimeline are the deterministic tier-1 tracing checks.
//
// Span recording is wait-free and alloc-free, so the honest number is
// noise-level — which dictates the measurement:
// cells run on a virtual clock (simulated waits are free, so the run
// is pure CPU), the meter is process CPU time (wall time over real
// syncs swings ±50% and cannot resolve a 5% budget), and the verdict
// is the median of per-round paired ratios — each round runs the two
// modes back to back, so slow environmental drift (CPU frequency,
// noisy neighbors) cancels within the pair instead of landing on one
// mode. Which mode of a pair runs first alternates from round to
// round, so whatever running second costs lands on both modes alike;
// with a fixed order it landed on the traced one every time. Single
// rounds swing by ±10% on two vCPUs, so the median is taken over
// gateRounds of them. Calibrated on a 2-vCPU host by adding a CPU cost
// of 0, 5 and 10% of an untraced cell to the traced cells only, six
// runs each at 20 rounds read medians of +10.0–15.7, +14.5–18.8 and
// +20.9–31.5% (five runs at 31 rounds: +10.3–17.5, +16.0–22.4,
// +19.4–26.0%; eight runs of the old 5 rounds in a fixed order:
// +5.2–21.4, +10.8–25.5, +16.5–26.2%). A 5% step moves the median by
// about twice its run-to-run spread; more rounds did not narrow that
// spread, which is the host's from one run to the next.
func TestTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate is slow under -short")
	}
	o := Options{Scale: 1, Calls: 800, Dir: t.TempDir()}.Defaults()
	run := func(traced bool) time.Duration {
		oo := o
		oo.Trace = traced
		runtime.GC() // start each cell with the same collector debt
		start := cpuNow(t)
		if err := traceOverheadCell(oo); err != nil {
			t.Fatal(err)
		}
		return (cpuNow(t) - start) / time.Duration(traceClients*oo.Calls)
	}
	run(false) // discard the cold first run
	var ratios []float64
	for i := 0; i < gateRounds; i++ {
		var b, tr time.Duration
		if i%2 == 0 {
			b, tr = run(false), run(true)
		} else {
			tr, b = run(true), run(false)
		}
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

const traceClients = 4

// gateRounds is how many paired rounds TestTraceOverhead takes the
// median of: odd, so the median is one round's ratio.
const gateRounds = 21

// traceOverheadCell runs the gate's workload once: traceClients
// concurrent external clients, o.Calls calls each, against one
// component apiece in ONE server process, so every call pays
// Algorithm 3's two forces against the shared log. The commit window
// stays off: its sleep busy-spins under a virtual clock, and that
// scheduling noise would swamp a 5% budget.
func traceOverheadCell(o Options) error {
	e, err := newEnv(o, virtual(localEnv()))
	if err != nil {
		return err
	}
	defer e.Close()
	m, err := e.u.AddMachine("server")
	if err != nil {
		return err
	}
	ps, err := m.StartProcess("srv", benchConfig(phoenix.LogOptimized, true))
	if err != nil {
		return err
	}
	defer ps.Close()
	refs := make([]*phoenix.Ref, traceClients)
	for i := range refs {
		h, err := ps.Create(fmt.Sprintf("Comp%d", i), &BenchServer{})
		if err != nil {
			return err
		}
		refs[i] = e.u.ExternalRef(h.URI())
		if _, err := refs[i].Call("Add", 0); err != nil {
			return err
		}
	}
	errs := make(chan error, len(refs))
	var wg sync.WaitGroup
	for _, ref := range refs {
		wg.Add(1)
		go func(r *phoenix.Ref) {
			defer wg.Done()
			for i := 0; i < o.Calls; i++ {
				if _, err := r.Call("Add", 1); err != nil {
					errs <- err
					return
				}
			}
		}(ref)
	}
	wg.Wait()
	close(errs)
	return <-errs
}
