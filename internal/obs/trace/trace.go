// Package trace is the causal-tracing layer of the observability
// stack: it assigns every external interaction a TraceID/SpanID that
// the runtime propagates through message envelopes and into the hot
// log record kinds, and records per-stage spans into a per-process
// lock-free ring-buffer flight recorder.
//
// The recorder is built for the logging hot path: Record is wait-free
// (one atomic ticket claim plus plain atomic stores into a fixed slot),
// allocates nothing, and timestamps on the universe clock so traces
// are deterministic under a VirtualClock. Readers (the crash dump, the
// debug endpoint) are rare and best-effort: each slot carries a
// sequence number with seqlock parity, so a reader either gets a
// consistent span or skips a slot that was mid-overwrite.
//
// A nil *Recorder is the "tracing off" state: every method is nil-safe
// and free, so call sites never branch on a flag.
package trace

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// Ref identifies one causal position: the trace an interaction belongs
// to and the span (one leg of work) within it. The zero Ref means
// "untraced" — codecs treat it as absent and emit the envelope and
// record layouts that carry no trace header.
type Ref struct {
	Trace uint64
	Span  uint64
}

// IsZero reports whether the Ref carries no trace.
func (r Ref) IsZero() bool { return r.Trace == 0 && r.Span == 0 }

// Stage names one leg of an interaction's causal path. The first eight
// cover normal execution in path order (paper Figure 1's messages 1-4
// as seen from both sides); the last three cover crash recovery, where
// a replayed call's span joins the original trace stitched by LSN.
type Stage uint8

const (
	// StageClientIntercept is the client-side interception of an
	// outgoing call: logging discipline decisions, message-3 logging
	// and the pre-send force, up to handing the call to the transport.
	StageClientIntercept Stage = iota
	// StageTransport is the wire round trip: envelope encode, send,
	// reply receive and decode, including retries.
	StageTransport
	// StageServerIntercept is the server-side interception before
	// execution: duplicate elimination and message-1 logging/forcing.
	StageServerIntercept
	// StageWALAppend is one AppendInto of a trace-carrying record.
	StageWALAppend
	// StageSyncWait is the wait for durability at a force point —
	// group-commit window plus device sync, or the inline sync.
	StageSyncWait
	// StageExecute is the component method execution itself.
	StageExecute
	// StageReply is the server-side reply path after execution:
	// message-2 logging/forcing until the reply leaves the handler.
	StageReply
	// StageClientResume is the client-side resume after the reply
	// arrives: message-4 logging and result decode.
	StageClientResume
	// StageRecoveryScan is a recovery pass over the log (Pass 1's scan
	// or Pass 2's head pass), one span per pass per recovery run.
	StageRecoveryScan
	// StageReplay is the re-execution of a logged incoming call during
	// Pass 2. Its Ref is the *original* trace read back from the log
	// record and its LSN is the replayed record's LSN — the stitch
	// point between pre-crash and post-crash halves of a timeline.
	StageReplay
	// StageDemandReplay is one context's backlog replay: its whole
	// Pass-2 work, run on first touch (parented under the triggering
	// call's trace — the wait that call actually experienced) or by a
	// background worker (parented under the recovery run's trace), in
	// eager and lazy mode alike. Its LSN is the context's restart LSN.
	StageDemandReplay

	// stageCount is the sentinel; keep it last.
	stageCount
)

var stageNames = [stageCount]string{
	StageClientIntercept: "client_intercept",
	StageTransport:       "transport",
	StageServerIntercept: "server_intercept",
	StageWALAppend:       "wal_append",
	StageSyncWait:        "sync_wait",
	StageExecute:         "execute",
	StageReply:           "reply",
	StageClientResume:    "client_resume",
	StageRecoveryScan:    "recovery_scan",
	StageReplay:          "replay",
	StageDemandReplay:    "demand_replay",
}

// String returns the stage's canonical snake_case name.
func (s Stage) String() string {
	if s < stageCount {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalJSON renders the stage by name so dump files and the debug
// endpoint stay readable without a decoder ring.
func (s Stage) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Span is one recorded leg of a trace, the decoded (reader-side) form.
// Start and End are universe-clock unix nanoseconds; LSN is the log
// record this leg produced or replayed (0 = none).
type Span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Stage  Stage  `json:"stage"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	LSN    uint64 `json:"lsn,omitempty"`
	Proc   string `json:"proc,omitempty"`
	Method string `json:"method,omitempty"`
}

// SpanData is the writer-side record input. Proc and Method are
// pointers into strings that already exist (the process name tag, a
// decoded call's Method field) so that recording stays allocation-free;
// the recorder stores the pointers, not copies.
type SpanData struct {
	Ref    Ref
	Parent uint64
	Stage  Stage
	Start  int64
	End    int64
	LSN    uint64
	Proc   *string
	Method *string
}

// slot is one ring entry. Every field is individually atomic: the
// race detector runs over the core tests, and a seqlock over plain
// fields would (correctly) trip it — and a torn string header would be
// memory-unsafe. The seq field carries seqlock parity on top: odd
// while a writer is mid-store, even when stable, 0 when never written.
type slot struct {
	seq    atomic.Uint64
	trace  atomic.Uint64
	span   atomic.Uint64
	parent atomic.Uint64
	lsn    atomic.Uint64
	start  atomic.Int64
	end    atomic.Int64
	stage  atomic.Uint32
	proc   atomic.Pointer[string]
	method atomic.Pointer[string]
}

// Recorder is the per-process flight recorder: a fixed-size ring of
// span slots overwritten oldest-first, plus the trace/span ID wells.
// The zero of *Recorder (nil) is "tracing off".
type Recorder struct {
	slots  []slot
	mask   uint64
	cursor atomic.Uint64 // monotonic ticket; slot = ticket & mask

	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64
	salt     uint64 // high bits of every TraceID, from Options.Name

	now func() int64

	spans       *obs.Counter
	overwrites  *obs.Counter
	stageMicros [stageCount]*obs.Histogram
}

// DefaultRingSize is the span capacity of a recorder when Options.Size
// is zero: 4096 spans ≈ 512 traced calls at ~8 spans each, a few
// hundred KiB resident.
const DefaultRingSize = 4096

// Options configures NewRecorder.
type Options struct {
	// Name salts the high bits of generated TraceIDs so traces from
	// different recorders (universes, benches) don't collide. Purely
	// deterministic: same name, same IDs.
	Name string
	// Size is the ring capacity in spans, rounded up to a power of
	// two. 0 means DefaultRingSize.
	Size int
	// Metrics receives the trace.* counters and per-stage latency
	// histograms; nil disables metric accounting (the ring still
	// records).
	Metrics *obs.Registry
	// Now supplies timestamps in unix nanoseconds. Wire it to the
	// universe clock so traces are deterministic under VirtualClock;
	// nil makes Now() return 0 (spans record with zero timestamps).
	Now func() int64
}

// NewRecorder builds a flight recorder.
func NewRecorder(o Options) *Recorder {
	size := o.Size
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	h := fnv.New64a()
	h.Write([]byte(o.Name))
	r := &Recorder{
		slots: make([]slot, n),
		mask:  uint64(n - 1),
		salt:  h.Sum64() &^ 0xFFFFFFFF, // keep the high 32 bits for IDs
		now:   o.Now,
	}
	tm := obs.TraceView(o.Metrics)
	r.spans = tm.Spans
	r.overwrites = tm.RingOverwrites
	r.stageMicros = [stageCount]*obs.Histogram{
		StageClientIntercept: tm.ClientInterceptMicros,
		StageTransport:       tm.TransportMicros,
		StageServerIntercept: tm.ServerInterceptMicros,
		StageWALAppend:       tm.WALAppendMicros,
		StageSyncWait:        tm.SyncWaitMicros,
		StageExecute:         tm.ExecuteMicros,
		StageReply:           tm.ReplyMicros,
		StageClientResume:    tm.ClientResumeMicros,
		StageRecoveryScan:    tm.RecoveryScanMicros,
		StageReplay:          tm.ReplayMicros,
		StageDemandReplay:    tm.DemandReplayMicros,
	}
	return r
}

// NewTrace mints a fresh trace: a new TraceID (recorder salt in the
// high 32 bits, a counter below — never zero) with a fresh root span.
// A nil recorder returns the zero Ref, i.e. "untraced".
func (r *Recorder) NewTrace() Ref {
	if r == nil {
		return Ref{}
	}
	return Ref{
		Trace: r.salt | (r.traceSeq.Add(1) & 0xFFFFFFFF),
		Span:  r.spanSeq.Add(1),
	}
}

// NewSpan mints a fresh span ID within an existing trace. A nil
// recorder returns 0.
func (r *Recorder) NewSpan() uint64 {
	if r == nil {
		return 0
	}
	return r.spanSeq.Add(1)
}

// Now returns the universe-clock time in unix nanoseconds. A nil
// recorder (or one with no clock) returns 0 without touching anything,
// so the disabled path costs one nil check.
func (r *Recorder) Now() int64 {
	if r == nil || r.now == nil {
		return 0
	}
	return r.now()
}

// Record stores one span into the ring, overwriting the oldest slot
// once full, and feeds the stage's latency histogram. Wait-free and
// allocation-free; a nil recorder drops the span for the cost of one
// branch. Untraced spans (zero Ref) are dropped too, so call sites can
// record unconditionally.
func (r *Recorder) Record(d SpanData) {
	if r == nil || d.Ref.IsZero() {
		return
	}
	i := r.cursor.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.seq.Store(2*i + 1) // odd: write in progress
	s.trace.Store(d.Ref.Trace)
	s.span.Store(d.Ref.Span)
	s.parent.Store(d.Parent)
	s.stage.Store(uint32(d.Stage))
	s.start.Store(d.Start)
	s.end.Store(d.End)
	s.lsn.Store(d.LSN)
	s.proc.Store(d.Proc)
	s.method.Store(d.Method)
	s.seq.Store(2*i + 2) // even: stable
	r.spans.Inc()
	if i >= uint64(len(r.slots)) {
		r.overwrites.Inc()
	}
	if h := r.stageMicros[d.Stage%stageCount]; h != nil && d.End >= d.Start {
		h.Observe((d.End - d.Start) / 1000)
	}
}

// Len returns the number of spans currently resident (at most the ring
// size). A nil recorder holds none.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if n := r.cursor.Load(); n < uint64(len(r.slots)) {
		return int(n)
	}
	return len(r.slots)
}

// Snapshot copies the stable slots out of the ring, ordered by start
// time (span ID breaks ties, preserving record order under a virtual
// clock). Slots mid-overwrite are retried briefly and then skipped —
// a reader never blocks a writer. A nil recorder snapshots empty.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.Len())
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 3; attempt++ {
			seq := s.seq.Load()
			if seq == 0 { // never written
				break
			}
			if seq%2 == 1 { // mid-write; retry
				continue
			}
			sp := Span{
				Trace:  s.trace.Load(),
				Span:   s.span.Load(),
				Parent: s.parent.Load(),
				Stage:  Stage(s.stage.Load()),
				Start:  s.start.Load(),
				End:    s.end.Load(),
				LSN:    s.lsn.Load(),
			}
			if p := s.proc.Load(); p != nil {
				sp.Proc = *p
			}
			if m := s.method.Load(); m != nil {
				sp.Method = *m
			}
			if s.seq.Load() == seq { // unchanged across the read: consistent
				out = append(out, sp)
				break
			}
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders spans for timeline display: by start time, span ID
// as the tiebreak.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Span < spans[j].Span
	})
}
