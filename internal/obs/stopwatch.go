package obs

import "time"

// stopwatchOrigin carries the monotonic reading every Stopwatch value
// is measured from.
var stopwatchOrigin = time.Now()

// Stopwatch returns host time in nanoseconds since the process
// started, one read of the runtime's monotonic clock: the clock behind
// every host-side latency histogram and busy-time sum on the call path
// (DESIGN.md Section 6). Model time is the universe clock's
// (disk.Clock) instead.
func Stopwatch() int64 { return int64(time.Since(stopwatchOrigin)) }
