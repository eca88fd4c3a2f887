// Fixture for the wallclock analyzer: direct wall-clock reads in a
// simulation-clocked package, with one allowlisted instrumentation
// function.
package wallclock

import (
	"time"

	"repro/internal/obs"
)

func bad() time.Duration {
	t0 := time.Now()             // want `time\.Now reads the wall clock in .*bad`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	_ = time.After(time.Second)  // want `time\.After reads the wall clock`
	return time.Since(t0)        // want `time\.Since reads the wall clock`
}

func badTimer() *time.Ticker {
	t := time.NewTimer(time.Second) // want `time\.NewTimer reads the wall clock`
	defer t.Stop()
	return time.NewTicker(time.Second) // want `time\.NewTicker reads the wall clock`
}

// instrumented is allowlisted by the test: a deliberate wall-time
// histogram site, like wal.force_micros.
func instrumented() time.Duration {
	t0 := time.Now()
	return time.Since(t0)
}

// hostTimed is the sanctioned route for host-side instrumentation: the
// obs stopwatch, with no allowlist entry.
func hostTimed(h *obs.Histogram) {
	start := obs.Stopwatch()
	h.Observe((obs.Stopwatch() - start) / 1e3)
}

// durations are data, not clock reads: nothing to flag here.
func scale(d time.Duration) time.Duration {
	return 3 * d / 2
}
