package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// eventLog collects events thread-safely (the callback runs with
// runtime locks held).
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (e *eventLog) record(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, ev)
}

func (e *eventLog) kinds() map[EventKind]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[EventKind]int)
	for _, ev := range e.events {
		out[ev.Kind]++
	}
	return out
}

func TestLifecycleEvents(t *testing.T) {
	u := newTestUniverse(t)
	trace := &eventLog{}
	cfg := testConfig()
	cfg.SaveStateEvery = 2
	cfg.CheckpointEvery = 4
	cfg.AutoTrimLog = true
	cfg.OnEvent = trace.record
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(2048)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 40; i++ {
		callInt(t, ref, "Add", 1)
	}
	p.Crash()
	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	callInt(t, ref, "Get")

	kinds := trace.kinds()
	for _, want := range []EventKind{
		EventStateSave, EventCheckpoint, EventTrim, EventCrash,
		EventRecoveryStart, EventRecoveryDone,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v event observed; kinds = %v", want, kinds)
		}
	}
	// The recovery-done event reports restored/replayed counts.
	var done Event
	trace.mu.Lock()
	for _, ev := range trace.events {
		if ev.Kind == EventRecoveryDone {
			done = ev
		}
	}
	trace.mu.Unlock()
	if !strings.Contains(done.Detail, "contexts restored") ||
		!strings.Contains(done.Detail, "replayed") {
		t.Errorf("recovery-done detail = %q", done.Detail)
	}
	if done.String() == "" || !strings.Contains(done.String(), "recovery-done") {
		t.Errorf("event String() = %q", done.String())
	}
}

func TestRetryEvents(t *testing.T) {
	u := newTestUniverse(t)
	trace := &eventLog{}
	cfg := testConfig()
	cfg.OnEvent = trace.record
	cfg.RetryInterval = time.Millisecond
	cfg.RetryLimit = 2000
	_, pc := startProc(t, u, "evo1", "cli", cfg)
	ms, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer pc.Close()
	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ps.Crash()
	done := make(chan error, 1)
	go func() {
		_, err := u.ExternalRef(hr.URI()).Call("Forward", 1)
		done <- err
	}()
	time.Sleep(15 * time.Millisecond)
	if _, err := ms.StartProcess("srv", testConfig()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if trace.kinds()[EventRetry] == 0 {
		t.Error("no retry events observed while the server was down")
	}
}

// TestEventKindStrings covers every declared kind (the eventKindCount
// sentinel bounds the loop, so adding a kind without a String case
// fails here) and pins the stable fallback for unknown values.
func TestEventKindStrings(t *testing.T) {
	seen := make(map[string]bool)
	for k := EventKind(0); k < eventKindCount; k++ {
		s := k.String()
		if strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("kind %d reuses name %q", k, s)
		}
		seen[s] = true
	}
	if got := EventKind(99).String(); got != "EventKind(99)" {
		t.Errorf("unknown kind String() = %q, want %q", got, "EventKind(99)")
	}
	if got := EventKind(-1).String(); got != "EventKind(-1)" {
		t.Errorf("negative kind String() = %q, want %q", got, "EventKind(-1)")
	}
}

// TestLogModeString pins the sibling stringer's names and its
// defensive fallback for out-of-range values.
func TestLogModeString(t *testing.T) {
	if got := LogBaseline.String(); got != "baseline" {
		t.Errorf("LogBaseline.String() = %q, want %q", got, "baseline")
	}
	if got := LogOptimized.String(); got != "optimized" {
		t.Errorf("LogOptimized.String() = %q, want %q", got, "optimized")
	}
	if got := LogMode(7).String(); got != "LogMode(7)" {
		t.Errorf("out-of-range LogMode String() = %q, want %q", got, "LogMode(7)")
	}
}

// TestRecoveryEventOrdering checks the structured trace around crash
// recovery: EventRecoveryStart precedes every EventReplay, which all
// precede EventRecoveryDone, and the done event's Replayed/Suppressed
// counts match the replay events observed and the suppression metric.
func TestRecoveryEventOrdering(t *testing.T) {
	u := newTestUniverse(t)
	trace := &eventLog{}
	cfg := testConfig()
	cfg.OnEvent = trace.record
	cfg.Metrics = obs.NewRegistry() // isolate the client's counters
	m, pc := startProc(t, u, "evo1", "cli", cfg)
	_, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer ps.Close()
	hc, err := ps.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hr.URI())
	const calls = 5
	for i := 0; i < calls; i++ {
		callInt(t, ref, "Forward", 1)
	}
	pc.Crash()
	p2, err := m.StartProcess("cli", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	callInt(t, ref, "Forward", 1)

	trace.mu.Lock()
	events := append([]Event(nil), trace.events...)
	trace.mu.Unlock()

	startIdx, doneIdx := -1, -1
	var replayIdx []int
	var done Event
	for i, ev := range events {
		switch ev.Kind {
		case EventRecoveryStart:
			startIdx = i
		case EventReplay:
			replayIdx = append(replayIdx, i)
		case EventRecoveryDone:
			doneIdx = i
			done = ev
		}
	}
	if startIdx < 0 || doneIdx < 0 {
		t.Fatalf("missing recovery events: start=%d done=%d", startIdx, doneIdx)
	}
	if len(replayIdx) == 0 {
		t.Fatal("no replay events observed")
	}
	for _, ri := range replayIdx {
		if ri < startIdx || ri > doneIdx {
			t.Errorf("replay event at %d outside recovery window [%d, %d]",
				ri, startIdx, doneIdx)
		}
		if events[ri].Method != "Forward" {
			t.Errorf("replay event method = %q, want Forward", events[ri].Method)
		}
		if events[ri].LSN.IsNil() {
			t.Error("replay event carries no LSN")
		}
	}
	if done.Replayed != int64(len(replayIdx)) {
		t.Errorf("done.Replayed = %d, want %d (observed replay events)",
			done.Replayed, len(replayIdx))
	}
	if done.Restored != 1 {
		t.Errorf("done.Restored = %d, want 1", done.Restored)
	}
	// Every replayed Forward found its outgoing reply on the log (the
	// external reply-sent force covered it), so each replay suppressed
	// exactly one send — and the metric agrees with the event.
	if done.Suppressed != done.Replayed {
		t.Errorf("done.Suppressed = %d, want %d", done.Suppressed, done.Replayed)
	}
	if got := p2.Metrics().Snapshot().Counter(obs.SuppressedSends); got != done.Suppressed {
		t.Errorf("suppressed-sends counter = %d, want %d", got, done.Suppressed)
	}
}
