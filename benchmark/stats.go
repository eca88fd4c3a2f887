package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// estimate is a reported value with how well the run established it,
// as a share of the value; -diff calls a row unresolved when this
// exceeds the metric's bound.
type estimate struct {
	Value  float64
	Spread float64
}

func exact(v float64) estimate { return estimate{Value: v} }

// medianOf is for counts, which host noise does not touch: the median
// of the samples, with their interquartile range over sqrt(n) as the
// spread.
func medianOf(samples []float64) estimate {
	s := sortedCopy(samples)
	m := quantile(s, 0.5)
	if len(s) < 2 || m == 0 {
		return estimate{Value: m}
	}
	iqr := quantile(s, 0.75) - quantile(s, 0.25)
	return estimate{Value: m, Spread: iqr / math.Abs(m) / math.Sqrt(float64(len(s)))}
}

// floorOf is for times. On a shared host noise only ever adds time, so
// the smallest of the samples — the quietest window, the quietest
// restart — is the best estimate of what the code costs, and by far
// the steadiest across runs (measured on p2p-mem over ten runs: 2%
// spread for the floor of per-window medians against 12% for their
// median). The spread is how far the tenth percentile lies above the
// floor: small when many samples reached it, large when one did.
func floorOf(samples []float64) estimate {
	s := sortedCopy(samples)
	if len(s) == 0 || s[0] <= 0 {
		return estimate{}
	}
	return estimate{Value: s[0], Spread: (quantile(s, 0.1) - s[0]) / s[0]}
}

// ceilOf is floorOf for rates, where noise only ever subtracts.
func ceilOf(samples []float64) estimate {
	s := sortedCopy(samples)
	if len(s) == 0 || s[len(s)-1] <= 0 {
		return estimate{}
	}
	top := s[len(s)-1]
	return estimate{Value: top, Spread: (top - quantile(s, 0.9)) / top}
}

// scale divides (or, for rates, multiplies) an estimate by the host
// speed factor.
func (e estimate) over(speed float64) estimate  { return estimate{e.Value / speed, e.Spread} }
func (e estimate) times(speed float64) estimate { return estimate{e.Value * speed, e.Spread} }

// window is one slice of a closed-loop measured interval.
type window struct {
	ops     int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	latMs   []float64 // per-op latency, milliseconds
	calibNs float64   // the reference's cost in the slice that follows the ops

	// Traced runs only: whether recording was on, and what the seams
	// and the logs counted over the window.
	recording bool
	spans     [numSpanKinds]kindTotals
	counts    seamCounts
	log       logTotals
}

func (w *window) meanMs() float64 { return mean(w.latMs) }

// windowStats reduces windows to the run's estimates, each taken from
// the window where it was best, so that a disturbed stretch of the run
// (a noisy neighbour, a slow minute) does not move it.
type windowStats struct {
	p50, tail, opsPerS, cpuUs, allocs, calibNs estimate

	ops int
}

func reduceWindows(ws []window, tailQ float64) windowStats {
	var p50, tail, rate, cpu, allocs, calib []float64
	var out windowStats
	for _, w := range ws {
		if w.ops == 0 {
			continue
		}
		s := sortedCopy(w.latMs)
		p50 = append(p50, quantile(s, 0.5))
		tail = append(tail, quantile(s, tailQ))
		rate = append(rate, float64(w.ops)/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu.Microseconds())/float64(w.ops))
		allocs = append(allocs, float64(w.mallocs)/float64(w.ops))
		calib = append(calib, w.calibNs)
		out.ops += w.ops
	}
	out.p50, out.tail, out.opsPerS = floorOf(p50), floorOf(tail), ceilOf(rate)
	out.cpuUs, out.allocs, out.calibNs = floorOf(cpu), medianOf(allocs), floorOf(calib)
	return out
}

// lcg is the benchmark's seeded generator (Knuth's MMIX constants):
// every input the program under test sees derives from -seed through
// it, so the same seed gives the same inputs.
type lcg uint64

func newLCG(seed uint64) *lcg {
	l := lcg(seed*2862933555777941757 + 3037000493)
	return &l
}

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (l *lcg) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := l.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
