package obs

import (
	"fmt"
	"io"
	"sort"
)

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets
// maps power-of-two bucket index i (values v with bits.Len64(v) == i)
// to its count; empty buckets are omitted.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile approximates the q-quantile (q in [0,1]) of the observed
// values as the midpoint of the power-of-two bucket holding the
// rank-q observation (bucket i holds values v with bits.Len64(v) == i,
// i.e. [2^(i-1), 2^i)). Resolution is a factor of two — enough for
// p50/p99 stage breakdowns, not for tight SLO math. Returns 0 when
// empty.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.Count-1)) + 1 // 1-based rank of the target observation
	var seen int64
	for i := 0; i < 64; i++ {
		n := h.Buckets[i]
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0 // bucket 0 holds only the value 0
			}
			lo := int64(1) << (i - 1)
			hi := int64(1)<<uint(i) - 1
			if h.Max > 0 && hi > h.Max {
				hi = h.Max
			}
			return (lo + hi) / 2
		}
	}
	return h.Max
}

// Sub returns the histogram activity since base. Max is carried from
// the newer snapshot (a maximum cannot be un-observed).
func (h HistogramSnapshot) Sub(base HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.Count - base.Count,
		Sum:   h.Sum - base.Sum,
		Max:   h.Max,
	}
	for i, n := range h.Buckets {
		if d := n - base.Buckets[i]; d != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]int64)
			}
			out.Buckets[i] = d
		}
	}
	return out
}

// Snapshot is a point-in-time copy of a Registry. It is a plain value:
// JSON-encodable (bench embeds it in its output, the debug endpoint
// serves it) and comparable via Diff (tests assert paper invariants on
// the delta of a workload).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter's value (0 when absent), so tests
// read `snap.Counter(obs.RecOutgoing)` without existence checks.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// HistogramFor returns the named histogram snapshot (zero when absent).
func (s Snapshot) HistogramFor(name string) HistogramSnapshot { return s.Histograms[name] }

// Diff returns the activity between base and s: every counter and
// histogram minus its value in base. Metrics absent from base diff
// against zero; metrics absent from s are omitted.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - base.Counters[name]
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h.Sub(base.Histograms[name])
	}
	return out
}

// Empty reports whether the snapshot records no activity at all (all
// counters zero and all histograms empty).
func (s Snapshot) Empty() bool {
	for _, v := range s.Counters {
		if v != 0 {
			return false
		}
	}
	for _, h := range s.Histograms {
		if h.Count != 0 {
			return false
		}
	}
	return true
}

// WriteText renders the snapshot sorted by name, one metric per line,
// skipping zero counters and empty histograms. indent prefixes every
// line (the bench harness nests snapshots under a header).
func (s Snapshot) WriteText(w io.Writer, indent string) {
	names := make([]string, 0, len(s.Counters))
	for n, v := range s.Counters {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-28s %d\n", indent, n, s.Counters[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n, h := range s.Histograms {
		if h.Count != 0 {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		fmt.Fprintf(w, "%s%-28s count=%d mean=%.1f max=%d\n", indent, n, h.Count, h.Mean(), h.Max)
	}
}
