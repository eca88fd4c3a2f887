// Package obs is the runtime observability layer of the Phoenix/App
// reproduction: a lock-free metrics registry whose counters and
// histograms make the paper's Section 3 accounting claims — "Algorithm 2
// saves two forces and two writes per persistent↔persistent call",
// "Algorithm 5 logs the reply without forcing" — machine-checkable at
// runtime.
//
// The registry is deliberately small: named monotonic counters and
// power-of-two histograms, all updated with atomics so the interception
// hot path (every logged message crosses it) never takes a lock. Names
// are dotted strings grouped by subsystem (wal.*, rec.*, intercept.*,
// force.*, recovery.*, rpc.*, transport.*); the canonical set and the
// views, the only code that resolves a metric, live in names.go.
//
// Snapshot captures every metric at an instant; Diff subtracts a base
// snapshot, which is how the bench harness reports per-run deltas and
// how tests assert paper invariants ("zero send-message writes during
// this workload") without the registry ever being reset.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic counter. The zero value is ready to
// use; a nil *Counter ignores updates, so call sites need no guards
// when a subsystem runs unobserved.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v==0, bucket i holds 2^(i-1) <= v < 2^i.
const histBuckets = 64

// Histogram is a lock-free power-of-two histogram for latencies
// (microseconds) and sizes (bytes). Like Counter, a nil *Histogram
// ignores observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Snapshot captures the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// Registry holds named counters and histograms. Only the views
// in names.go resolve a metric (get-or-create, once, at construction);
// code outside this package holds the resolved pointers and touches
// only atomics, and reads names back through Snapshot.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry used when no explicit
// one is configured (long-running binaries expose it via the debug
// endpoint; the bench harness diffs it per run).
var defaultRegistry = NewRegistry()

// Default returns the process-wide shared registry.
func Default() *Registry { return defaultRegistry }

// counter returns the named counter, creating it on first use.
func (r *Registry) counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// histogram returns the named histogram, creating it on first use.
func (r *Registry) histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures every registered metric. The result is detached:
// later updates do not change it.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
