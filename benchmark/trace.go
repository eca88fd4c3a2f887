package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing: spans recorded at the seams the product
// exposes (the call site, the network, the handler, the component
// method body, the disk model) and reduced when the run ends. Nothing
// inside the program under test is instrumented.

// spanKind names a seam.
type spanKind uint8

const (
	spanCall      spanKind = iota // Ref.Call as seen by its caller (root or nested)
	spanNetSend                   // transport.Network.Send
	spanNetHandle                 // the transport.Handler a process listens with
	spanAppExec                   // a benchmark component's method body
	spanDiskWrite                 // disk.Model.Write
	spanDiskSync                  // disk.Model.Sync
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"call", "net.send", "net.handle", "app.execute", "disk.write", "disk.sync",
}

// span is one recorded interval. Parent is the index of the span that
// was open when this one began (-1 for a root, and always -1 in flat
// mode).
type span struct {
	Start  int64 // ns since the recorder's epoch
	Dur    int64 // ns; -1 while open
	Parent int32
	Kind   spanKind
}

// kindTotals is the reduction of one span kind.
type kindTotals struct {
	Count int64
	Total int64 // ns, sum of durations
	Self  int64 // ns, durations minus the part child spans cover
}

// maxRawSpans bounds the spans kept verbatim. The totals cover every
// span; the verbatim prefix is for inspection (-spans) and for checking
// the running reduction against the offline one. Keeping millions of
// spans would grow the heap, make the collector run less often than in
// the untraced run, and so change the very latencies being attributed.
const maxRawSpans = 1 << 16

// recorder collects spans. In tree mode it assumes one timeline — the
// one-client workloads run every layer on the caller's goroutine — and
// links each span to the innermost open one, so a span's self time is
// its duration minus its children's. In flat mode (concurrent callers)
// spans carry no parent and self time equals duration.
type recorder struct {
	on   atomic.Bool
	tree bool

	mu     sync.Mutex
	epoch  time.Time
	raw    []span
	totals [numSpanKinds]kindTotals
	stack  []openSpan
}

// openSpan is a tree-mode span that has begun and not ended.
type openSpan struct {
	childNs int64
	raw     int32
}

// spanToken is what begin hands back for end. The zero token means
// recording was off.
type spanToken struct {
	start int64
	raw   int32 // index in the verbatim prefix, -1 beyond it
	kind  spanKind
}

// recorded reports whether the span was begun with recording on.
func (t spanToken) recorded() bool { return t.start != 0 }

func newRecorder(tree bool) *recorder {
	return &recorder{tree: tree, epoch: time.Now(), raw: make([]span, 0, maxRawSpans)}
}

// begin opens a span.
func (r *recorder) begin(k spanKind) spanToken {
	if r == nil || !r.on.Load() {
		return spanToken{}
	}
	tok := spanToken{start: int64(time.Since(r.epoch)) + 1, raw: -1, kind: k}
	r.mu.Lock()
	parent := int32(-1)
	if r.tree && len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1].raw
	}
	if len(r.raw) < maxRawSpans {
		tok.raw = int32(len(r.raw))
		r.raw = append(r.raw, span{Start: tok.start, Dur: -1, Parent: parent, Kind: k})
	}
	if r.tree {
		r.stack = append(r.stack, openSpan{raw: tok.raw})
	}
	r.mu.Unlock()
	return tok
}

// end closes the span begin returned.
func (r *recorder) end(tok spanToken) {
	if !tok.recorded() {
		return
	}
	dur := int64(time.Since(r.epoch)) + 1 - tok.start
	r.mu.Lock()
	self := dur
	if r.tree && len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		self -= top.childNs
		if len(r.stack) > 0 {
			r.stack[len(r.stack)-1].childNs += dur
		}
	}
	t := &r.totals[tok.kind]
	t.Count++
	t.Total += dur
	t.Self += self
	if tok.raw >= 0 {
		r.raw[tok.raw].Dur = dur
	}
	r.mu.Unlock()
}

// reduce returns the totals over every span ended so far.
func (r *recorder) reduce() [numSpanKinds]kindTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// spans returns the verbatim prefix in begin order; an unclosed span
// has Dur -1.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.raw...)
}

// selfTimes is the offline reduction of a span list: a span's self
// time is its duration minus the durations of its direct children
// (children of one parent never overlap on a single timeline).
// Unclosed spans are skipped.
func selfTimes(spans []span) [numSpanKinds]kindTotals {
	var out [numSpanKinds]kindTotals
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Dur >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	for i, s := range spans {
		if s.Dur < 0 {
			continue
		}
		t := &out[s.Kind]
		t.Count++
		t.Total += s.Dur
		t.Self += s.Dur - child[i]
	}
	return out
}

// writeSpans dumps spans as JSON, one [kind, start_ns, dur_ns, parent]
// row each, for offline inspection (-spans).
func writeSpans(path string, spans []span) error {
	rows := make([][4]any, 0, len(spans))
	for _, s := range spans {
		rows = append(rows, [4]any{spanKindNames[s.Kind], s.Start, s.Dur, s.Parent})
	}
	data, err := json.Marshal(map[string]any{
		"columns": []string{"kind", "start_ns", "dur_ns", "parent"},
		"spans":   rows,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
