package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

func TestSaveStateAdvancesRestartLSN(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	creation := h.RestartLSN()
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Add", 1)
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}
	first := h.RestartLSN()
	if first <= creation {
		t.Errorf("restart LSN %v did not advance past creation %v", first, creation)
	}
	callInt(t, ref, "Add", 1)
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}
	if h.RestartLSN() <= first {
		t.Error("second state record did not advance the restart LSN")
	}
}

func TestRecoveryFromStateRecord(t *testing.T) {
	// Crash after a state record: recovery must restore from it and
	// replay only the suffix.
	u := newTestUniverse(t)
	cfg := testConfig()
	m, p := startProc(t, u, "evo1", "srv", cfg)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 5; i++ {
		callInt(t, ref, "Add", 10)
	}
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		callInt(t, ref, "Add", 1)
	}
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := callInt(t, ref, "Get"); got != 53 {
		t.Errorf("recovered counter = %d, want 53", got)
	}
	// The restored context's restart LSN is the state record, not the
	// creation record.
	h2, _ := p2.Lookup("Counter")
	if h2.RestartLSN() <= h.RestartLSN() && h2.RestartLSN() == ids.LSN(16) {
		t.Errorf("recovered restart LSN = %v, looks like the creation record", h2.RestartLSN())
	}
}

func TestSaveStateEveryPolicy(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 3
	_, p := startProc(t, u, "evo1", "srv", cfg)
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	start := h.RestartLSN()
	callInt(t, ref, "Add", 1)
	callInt(t, ref, "Add", 1)
	if h.RestartLSN() != start {
		t.Error("state saved before the policy interval")
	}
	callInt(t, ref, "Add", 1)
	if h.RestartLSN() == start {
		t.Error("state not saved at the policy interval")
	}
}

// TestCheckpointPublishesItself: a checkpoint forces its own records and
// publishes its begin LSN in the log's root (Section 4.3), so a process
// whose calls never force — here one hosting only a functional and a
// read-only component — still publishes every checkpoint it takes and
// trims its log. A restart opens at the published mark.
func TestCheckpointPublishesItself(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(256)
	hp, err := p.Create("Pure", &Pure{}, WithType(msg.Functional))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("RO", &Counter{N: 7}, WithType(msg.ReadOnly))
	if err != nil {
		t.Fatal(err)
	}
	pure, ro := u.ExternalRef(hp.URI()), u.ExternalRef(hr.URI())
	forces := p.LogStats().Forces
	const checkpoints = 8
	for i := 0; i < checkpoints; i++ {
		callInt(t, pure, "Double", i)
		callInt(t, ro, "Get")
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.LogStats().Forces - forces; got != checkpoints {
		t.Errorf("%d forces after creation, want one per checkpoint (%d)", got, checkpoints)
	}
	mark, _ := publishedRoot(t, p.LogDir())
	if mark.IsNil() || mark != p.log.Mark() {
		t.Fatalf("root on disk names %v, the live log %v; want the last checkpoint", mark, p.log.Mark())
	}
	raw, err := os.ReadFile(filepath.Join(p.LogDir(), "root"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\nmark "); n != 1 {
		t.Fatalf("root holds %d marks:\n%s; want one", n, raw)
	}
	if rec, err := p.log.Read(mark); err != nil || rec.Type != recBeginCkpt {
		t.Errorf("well-known LSN points at %v/%v, want begin-checkpoint", rec.Type, err)
	}
	if p.LogStats().TrimmedBytes == 0 {
		t.Error("the published checkpoints trimmed nothing")
	}
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.log.Mark(); got != mark {
		t.Errorf("restart opened at mark %v, want %v", got, mark)
	}
	if got := callInt(t, pure, "Double", 4); got != 8 {
		t.Errorf("Double(4) after the restart = %d, want 8", got)
	}
	if got := callInt(t, ro, "Get"); got != 7 {
		t.Errorf("Get after the restart = %d, want 7", got)
	}
}

func TestRecoveryUsesCheckpoint(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 2
	cfg.CheckpointEvery = 4
	m, p := startProc(t, u, "evo1", "srv", cfg)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 11; i++ {
		callInt(t, ref, "Add", 1)
	}
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := callInt(t, ref, "Get"); got != 11 {
		t.Errorf("recovered counter = %d, want 11", got)
	}
	// Keep going after recovery, across another checkpoint cycle.
	for i := 0; i < 6; i++ {
		callInt(t, ref, "Add", 1)
	}
	if got := callInt(t, ref, "Get"); got != 17 {
		t.Errorf("counter after more calls = %d, want 17", got)
	}
}

func TestDuplicateAnsweredAfterStateRestore(t *testing.T) {
	// The reply of a last-call entry must survive a state save + crash:
	// the state record carries the reply's LSN and the duplicate is
	// answered from the log (Section 4.2).
	u := newTestUniverse(t)
	cfg := testConfig()
	m, p := startProc(t, u, "evo1", "srv", cfg)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	counter := h.Object().(*Counter)
	caller := ids.ComponentAddr{Machine: "evo9", Proc: 1, Comp: 1}
	args, n, _ := encodeArgsHelper(5)
	call := &msg.Call{
		ID:         ids.CallID{Caller: caller, Seq: 8},
		Target:     h.URI(),
		Method:     "Add",
		Args:       args,
		NumArgs:    n,
		CallerType: msg.Persistent,
	}
	r1 := serve(t, p, call)
	if r1.Fault != "" {
		t.Fatalf("call failed: %+v", r1)
	}
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}
	// Force the log so the state record and reply body are stable,
	// then crash.
	if _, err := p.log.SyncAll(); err != nil {
		t.Fatal(err)
	}
	_ = counter
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	// The retried duplicate must be answered from the logged reply,
	// without re-executing.
	r2 := serve(t, p2, call)
	if r2.Fault != "" {
		t.Fatalf("duplicate after recovery faulted: %+v", r2)
	}
	if string(r2.Results) != string(r1.Results) {
		t.Error("duplicate reply differs after state-record recovery")
	}
	h2, _ := p2.Lookup("Counter")
	if got := h2.Object().(*Counter).N; got != 5 {
		t.Errorf("counter re-executed: %d, want 5", got)
	}
}

func TestContextRecoveryWithinLiveProcess(t *testing.T) {
	// Section 4.4's easier case: recover one failed context while the
	// process lives.
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 4; i++ {
		callInt(t, ref, "Add", 2)
	}
	// Corrupt the in-memory component ("the component failed").
	h.Object().(*Counter).N = -999

	if err := p.RecoverContext("Counter"); err != nil {
		t.Fatal(err)
	}
	if got := callInt(t, ref, "Get"); got != 8 {
		t.Errorf("recovered context counter = %d, want 8", got)
	}
	// And from a state record, replaying only the suffix.
	h2, _ := p.Lookup("Counter")
	if err := h2.SaveState(); err != nil {
		t.Fatal(err)
	}
	callInt(t, ref, "Add", 1)
	h2.Object().(*Counter).N = -999
	if err := p.RecoverContext("Counter"); err != nil {
		t.Fatal(err)
	}
	if got := callInt(t, ref, "Get"); got != 9 {
		t.Errorf("recovered-from-state counter = %d, want 9", got)
	}
}

func TestSaveStateRejectedForStateless(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	h, err := p.Create("Pure", &Pure{}, WithType(msg.Functional))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SaveState(); err == nil {
		t.Error("SaveState on a functional component succeeded")
	}
}

// Ballast is a Counter whose state takes a while to capture: the time
// between a state save's reply records and its state record.
type Ballast struct {
	Counter
	Pad []int
}

// TestStateSavesRaceCheckpoints: four Ballasts save their state after
// every call from their Relays in another process while a goroutine
// takes checkpoints in a loop. A state save records where it wrote a
// reply in the last-call table under the table's lock only, the lock
// under which a checkpoint reads it. Run under -race.
func TestStateSavesRaceCheckpoints(t *testing.T) {
	const pairs, calls = 4, 25
	u := newTestUniverse(t)
	defer u.Shutdown()
	cfg := testConfig()
	cfg.SaveStateEvery = 1
	_, ps := startProc(t, u, "evo1", "srv", cfg)
	_, pc := startProc(t, u, "evo2", "cli", cfg)
	relays := make([]*Ref, pairs)
	for i := range relays {
		h, err := ps.Create(fmt.Sprintf("Ballast%d", i), &Ballast{Pad: make([]int, 1<<14)})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := pc.Create(fmt.Sprintf("Relay%d", i), &Relay{Server: NewRef(h.URI())})
		if err != nil {
			t.Fatal(err)
		}
		relays[i] = u.ExternalRef(hr.URI())
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := ps.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, relay := range relays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= calls; i++ {
				if res, err := relay.Call("Forward", 1); err != nil || res[0] != any(i) {
					t.Errorf("Forward(1) #%d = %v, %v", i, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

// TestLastCallSeedNewestReply: Pass 1 meets a call's reply records in
// any order — a checkpoint's table can name a copy older than one the
// scan passed — and keeps the newest; an incoming record, which names
// none, never clears one, and an older call never replaces a newer.
func TestLastCallSeedNewestReply(t *testing.T) {
	caller := ids.ComponentAddr{Machine: "evo9", Proc: 1, Comp: 1}
	tab := newLastCallTable()
	for _, e := range []lastCallSaved{
		{Caller: caller, Seq: 2},
		{Caller: caller, Seq: 2, ReplyLSN: 900},
		{Caller: caller, Seq: 2, ReplyLSN: 300},
		{Caller: caller, Seq: 2},
		{Caller: caller, Seq: 1, ReplyLSN: 1200},
	} {
		tab.seed(e)
	}
	if e := tab.get(caller); e.seq != 2 || e.replyLSN != 900 {
		t.Errorf("seeded entry is seq %d at %v, want seq 2 at lsn:900", e.seq, e.replyLSN)
	}
}
