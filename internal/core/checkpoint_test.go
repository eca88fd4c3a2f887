package core

import (
	"os"
	"path/filepath"
	"strings"
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

func TestProcessCheckpointWritesWellKnownLSNOnNextForce(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	_, p := startProc(t, u, "evo1", "srv", cfg)
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Add", 1)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is unforced: the root must not point at it yet.
	if mark, _ := publishedRoot(t, p.LogDir()); !mark.IsNil() {
		t.Errorf("well-known LSN %v written before the checkpoint was forced", mark)
	}
	// The next send's force covers the checkpoint (Section 4.3:
	// "possibly by a later send message"), and the root holds the one
	// mark the paper's protocol has: the begin-checkpoint LSN.
	callInt(t, ref, "Add", 1)
	lsn, _ := publishedRoot(t, p.LogDir())
	raw, err := os.ReadFile(filepath.Join(p.LogDir(), "root"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\nmark "); lsn.IsNil() || n != 1 {
		t.Fatalf("root holds %d marks (mark %v):\n%s; want one", n, lsn, raw)
	}
	rec, err := p.log.Read(lsn)
	if err != nil || rec.Type != recBeginCkpt {
		t.Errorf("well-known LSN points at %v/%v, want begin-checkpoint", rec.Type, err)
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
	if err := p.force(nil); err != nil {
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
