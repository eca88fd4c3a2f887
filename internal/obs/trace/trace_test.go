package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// fixedClock is a deterministic Now source tests can step (atomic so
// the concurrency test can share it across writers).
type fixedClock struct{ t atomic.Int64 }

func (c *fixedClock) now() int64 { return c.t.Add(1000) }

func newTestRecorder(size int, reg *obs.Registry) (*Recorder, *fixedClock) {
	c := &fixedClock{}
	return NewRecorder(Options{Name: "test", Size: size, Metrics: reg, Now: c.now}), c
}

func TestRecordSnapshot(t *testing.T) {
	r, _ := newTestRecorder(16, nil)
	proc, method := "srv", "Add"
	ref := r.NewTrace()
	for i := 0; i < 3; i++ {
		start := r.Now()
		r.Record(SpanData{
			Ref:    Ref{Trace: ref.Trace, Span: r.NewSpan()},
			Parent: ref.Span,
			Stage:  Stage(i),
			Start:  start,
			End:    r.Now(),
			LSN:    uint64(100 + i),
			Proc:   proc,
			Method: method,
		})
	}
	spans := r.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.Trace != ref.Trace {
			t.Errorf("span %d: trace %x, want %x", i, sp.Trace, ref.Trace)
		}
		if sp.Stage != Stage(i) {
			t.Errorf("span %d: stage %v, want %v (start-time order)", i, sp.Stage, Stage(i))
		}
		if sp.Proc != "srv" || sp.Method != "Add" {
			t.Errorf("span %d: proc/method %q/%q", i, sp.Proc, sp.Method)
		}
		if sp.LSN != uint64(100+i) {
			t.Errorf("span %d: lsn %d", i, sp.LSN)
		}
		if sp.End <= sp.Start {
			t.Errorf("span %d: end %d <= start %d", i, sp.End, sp.Start)
		}
	}
}

func TestZeroRefDropped(t *testing.T) {
	r, _ := newTestRecorder(16, nil)
	r.Record(SpanData{Stage: StageExecute, Start: 1, End: 2})
	if n := r.Len(); n != 0 {
		t.Fatalf("untraced span was recorded: Len=%d", n)
	}
}

func TestRingOverwrite(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := newTestRecorder(8, reg)
	proc := "p"
	ref := r.NewTrace()
	for i := 0; i < 20; i++ {
		start := r.Now()
		r.Record(SpanData{Ref: Ref{Trace: ref.Trace, Span: r.NewSpan()},
			Stage: StageExecute, Start: start, End: r.Now(), Proc: proc})
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want ring size 8", got)
	}
	spans := r.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("snapshot has %d spans, want 8", len(spans))
	}
	// Oldest 12 were displaced; survivors are the newest 8 spans.
	for _, sp := range spans {
		if sp.Span <= 12 {
			t.Errorf("displaced span %d still present", sp.Span)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.TraceSpans); got != 20 {
		t.Errorf("trace.spans = %d, want 20", got)
	}
	if got := snap.Counter(obs.TraceRingOverwrites); got != 12 {
		t.Errorf("trace.ring_overwrites = %d, want 12", got)
	}
}

func TestStageHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	r, _ := newTestRecorder(16, reg)
	ref := r.NewTrace()
	r.Record(SpanData{Ref: ref, Stage: StageSyncWait, Start: 0, End: 8_000_000}) // 8ms
	h := reg.Snapshot().HistogramFor(obs.TraceSyncWaitMicros)
	if h.Count != 1 {
		t.Fatalf("sync_wait histogram count = %d, want 1", h.Count)
	}
	if h.Max != 8000 {
		t.Fatalf("sync_wait max = %dµs, want 8000", h.Max)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if ref := r.NewTrace(); !ref.IsZero() {
		t.Errorf("nil NewTrace = %+v, want zero", ref)
	}
	if id := r.NewSpan(); id != 0 {
		t.Errorf("nil NewSpan = %d", id)
	}
	if now := r.Now(); now != 0 {
		t.Errorf("nil Now = %d", now)
	}
	r.Record(SpanData{Ref: Ref{Trace: 1, Span: 1}}) // must not panic
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v", got)
	}
	if got := r.Len(); got != 0 {
		t.Errorf("nil Len = %d", got)
	}
}

func TestDeterministicIDs(t *testing.T) {
	a, _ := newTestRecorder(8, nil)
	b, _ := newTestRecorder(8, nil)
	ra, rb := a.NewTrace(), b.NewTrace()
	if ra != rb {
		t.Errorf("same-name recorders minted different IDs: %+v vs %+v", ra, rb)
	}
	if ra.Trace == 0 {
		t.Errorf("trace ID is zero")
	}
	other := NewRecorder(Options{Name: "other", Size: 8})
	if ro := other.NewTrace(); ro.Trace == ra.Trace {
		t.Errorf("different-name recorders collided on trace ID %x", ro.Trace)
	}
}

func TestStageString(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < stageCount; s++ {
		name := s.String()
		if name == "" || name == "unknown" {
			t.Errorf("stage %d has no name", s)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r, _ := newTestRecorder(32, nil)
	proc, method := "srv", "Add"
	for i := 0; i < 5; i++ {
		ref := r.NewTrace()
		start := r.Now()
		r.Record(SpanData{Ref: ref, Stage: StageReplay, Start: start, End: r.Now(),
			LSN: uint64(i), Proc: proc, Method: method})
	}
	want := r.Snapshot()
	path := filepath.Join(t.TempDir(), "proc.ftr.0")
	if err := WriteDump(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d spans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("span %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestDumpRejectsGarbage: a dump loads only whole. Every refusal
// names the file.
func TestDumpRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	load := func(name string, data []byte) error {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDump(path)
		if err != nil && !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
		return err
	}
	goodPath := filepath.Join(dir, "good")
	if err := WriteDump(goodPath, []Span{{Trace: 1, Span: 2, Stage: StageReply, Start: 3, End: 4, Proc: "srv"}}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	if load("garbage", []byte("not a dump")) == nil {
		t.Error("garbage accepted")
	}
	// Every cut into the JSON value; the final newline alone may go.
	body := bytes.TrimRight(good, "\n")
	for cut := 0; cut < len(body); cut++ {
		if load("cut", body[:cut]) == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(body))
		}
	}
	if load("trailing", append(bytes.Clone(good), '0')) == nil {
		t.Error("trailing byte accepted")
	}
	unknown := bytes.Replace(good, []byte(`"reply"`), []byte(`"replay_queue_wait"`), 1)
	if bytes.Equal(unknown, good) {
		t.Fatalf("no stage name in %s", good)
	}
	if load("unknown-stage", unknown) == nil {
		t.Error("unknown stage name accepted")
	}
	// The varint format crash dumps had before they were JSON.
	if load("old.ftr.0", []byte("PHXFTR1\n\x01\x01\x02\x00\x06\x00\x06\x08\x03srv\x00")) == nil {
		t.Error("PHXFTR1 dump accepted")
	}
}

// TestDumpIsDebugEndpointJSON: a dump file holds exactly what the
// debug endpoint serves for the same spans.
func TestDumpIsDebugEndpointJSON(t *testing.T) {
	r, _ := newTestRecorder(8, nil)
	proc := "srv"
	r.Record(SpanData{Ref: r.NewTrace(), Stage: StageExecute, Start: 1, End: 2, Proc: proc})
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", DebugPath, nil))
	path := filepath.Join(t.TempDir(), "srv.ftr.0")
	if err := WriteDump(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, rec.Body.Bytes()) {
		t.Errorf("dump file\n%s\ndiffers from the debug endpoint's\n%s", file, rec.Body.Bytes())
	}
}

// TestRecordZeroAllocs is the satellite gate: recording a span into
// the ring must allocate nothing in steady state.
func TestRecordZeroAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	r, clk := newTestRecorder(1024, reg)
	proc, method := "srv", "Add"
	ref := r.NewTrace()
	allocs := testing.AllocsPerRun(1000, func() {
		start := clk.now()
		r.Record(SpanData{
			Ref:    Ref{Trace: ref.Trace, Span: r.NewSpan()},
			Parent: ref.Span,
			Stage:  StageExecute,
			Start:  start,
			End:    clk.now(),
			LSN:    42,
			Proc:   proc,
			Method: method,
		})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per span, want 0", allocs)
	}
}

// TestConcurrentRecordSnapshot exercises writers racing a reader; run
// under -race this validates the all-atomic slot layout.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r, _ := newTestRecorder(64, nil)
	proc := "p"
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref := r.NewTrace()
			for i := 0; i < 2000; i++ {
				start := r.Now()
				r.Record(SpanData{Ref: Ref{Trace: ref.Trace, Span: r.NewSpan()},
					Stage: Stage(i % int(stageCount)), Start: start, End: r.Now(), Proc: proc})
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range r.Snapshot() {
				if sp.Trace == 0 {
					t.Error("snapshot returned an untraced span")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
}

func TestHandlerJSON(t *testing.T) {
	r, _ := newTestRecorder(16, nil)
	proc := "srv"
	ref := r.NewTrace()
	start := r.Now()
	r.Record(SpanData{Ref: ref, Stage: StageTransport, Start: start, End: r.Now(), Proc: proc})
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", DebugPath, nil))
	var body struct {
		Spans []struct {
			Trace uint64 `json:"trace"`
			Stage string `json:"stage"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(body.Spans) != 1 || body.Spans[0].Stage != "transport" {
		t.Fatalf("unexpected body: %s", rec.Body.String())
	}
}

func ExampleStage_String() {
	fmt.Println(StageClientIntercept, StageReplay)
	// Output: client_intercept replay
}

// TestSnapshotNamesNeverTorn races writers on a four-slot ring, so that
// slots wrap while a writer is mid-store, against a reader. Each span's
// trace ID names the writer and the method it recorded, and every name
// is its own allocation of a different length: a slot rebuilt from one
// writer's data pointer and another's length, or from two writers'
// fields, reads back a name that was never recorded with that ID. Run it
// under -race, which also checks each rebuilt string (checkptr).
func TestSnapshotNamesNeverTorn(t *testing.T) {
	const writers, methods = 4, 5
	r, _ := newTestRecorder(4, nil)
	var procNames [writers]string
	var methodNames [methods]string
	for w := range procNames {
		procNames[w] = strings.Repeat(fmt.Sprint(w), 1+3*w)
	}
	for m := range methodNames {
		methodNames[m] = strings.Repeat(string(rune('a'+m)), 2+5*m)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				m := i % methods
				r.Record(SpanData{Ref: Ref{Trace: uint64(w)<<8 | uint64(m) + 1, Span: r.NewSpan()},
					Stage: StageExecute, Proc: procNames[w], Method: methodNames[m]})
			}
		}()
	}
	readerDone := make(chan struct{})
	var read int
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range r.Snapshot() {
				read++
				w, m := (sp.Trace-1)>>8, (sp.Trace-1)&0xFF
				if w >= writers || m >= methods || sp.Proc != procNames[w] || sp.Method != methodNames[m] {
					t.Errorf("span of trace %#x reads proc %q method %q: not what was recorded with it", sp.Trace, sp.Proc, sp.Method)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if read == 0 {
		t.Log("the reader saw no stable slot while writers ran")
	}
	for _, sp := range r.Snapshot() {
		if w, m := (sp.Trace-1)>>8, (sp.Trace-1)&0xFF; sp.Proc != procNames[w] || sp.Method != methodNames[m] {
			t.Errorf("quiescent ring: trace %#x reads proc %q method %q", sp.Trace, sp.Proc, sp.Method)
		}
	}
}

// TestWrappedWriterNeverMixesSlot stages, step by step, what the race
// above can only hope to hit: writer A holds a slot mid-store when the
// ring wraps onto it. The writer that wraps must drop its span rather
// than store into the held slot, so a snapshot skips the slot while A
// holds it and, once A is done, reads A's span alone — never A's trace
// with another writer's names.
func TestWrappedWriterNeverMixesSlot(t *testing.T) {
	r, _ := newTestRecorder(4, nil)
	for k := 0; k < 4; k++ {
		r.Record(SpanData{Ref: Ref{Trace: 1, Span: uint64(10 + k)}, Proc: "old", Method: "Old"})
	}
	// Writer A takes the next ticket, claims its slot as Record does and
	// stores the first half of its span.
	i := r.cursor.Add(1) - 1
	s := &r.slots[i&r.mask]
	if cur := s.seq.Load(); cur%2 != 0 || !s.seq.CompareAndSwap(cur, 2*i+1) {
		t.Fatal("writer A could not claim its slot")
	}
	s.trace.Store(7)
	s.span.Store(70)
	procA := "proc-a"
	s.procData.Store(unsafe.StringData(procA))
	s.procLen.Store(uint64(len(procA)))
	// Four more spans wrap the ring onto A's slot.
	for k := 0; k < 4; k++ {
		r.Record(SpanData{Ref: Ref{Trace: 9, Span: uint64(90 + k)}, Proc: "wrapping-proc", Method: "WrappingMethod"})
	}
	for _, sp := range r.Snapshot() {
		if sp.Trace != 9 {
			t.Errorf("snapshot while A holds its slot returned %+v", sp)
		}
	}
	methodA := "MethodA"
	s.methodData.Store(unsafe.StringData(methodA))
	s.methodLen.Store(uint64(len(methodA)))
	s.seq.Store(2*i + 2)
	var found bool
	for _, sp := range r.Snapshot() {
		if sp.Trace == 7 || sp.Span == 93 {
			found = true
			if sp.Trace != 7 || sp.Span != 70 || sp.Proc != "proc-a" || sp.Method != "MethodA" {
				t.Errorf("A's slot reads %+v: mixed with the span that wrapped onto it", sp)
			}
		}
	}
	if !found {
		t.Error("A's span is missing from the snapshot")
	}
}
