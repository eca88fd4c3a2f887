package core

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

// TestConservativeUntilLearned: "Initially, the types of server
// components are unknown, and the most conservative logging algorithms
// are used. From reply messages, we gradually learn server component
// types" (Section 3.4). The first call to a functional server pays the
// persistent-discipline force; later calls pay nothing.
func TestConservativeUntilLearned(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	_, pc := startProc(t, u, "evo1", "cli", cfg)
	_, ps := startProc(t, u, "evo2", "srv", cfg)
	defer pc.Close()
	defer ps.Close()
	hs, err := ps.Create("Pure", &Pure{}, WithType(msg.Functional))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := pc.Create("Batcher", &Batcher{Server: NewRef(hs.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hb.URI())

	// Before any call the server is unknown: the conservative
	// (persistent) treatment governs the pre-send force.
	if _, _, known := pc.remoteTypes.lookup(hs.URI(), "Double"); known {
		t.Fatal("server known before any call")
	}

	// The first call sends with the conservative discipline, but the
	// reply carries the type attachment, so even the first message 4
	// is already handled with full knowledge (a strict improvement on
	// per-call conservatism: only the pre-send force is conservative).
	st := statsDelta(pc, func() { callInt(t, ref, "RunBatch", "Double", 1, 3) })
	if st.Appends != 2 { // envelope msg1 + msg2-short only
		t.Errorf("first call appends = %d, want 2", st.Appends)
	}
	ctype, _, known := pc.remoteTypes.lookup(hs.URI(), "Double")
	if !known || ctype != msg.Functional {
		t.Errorf("after first call: known=%v type=%v, want Functional", known, ctype)
	}

	// Learned: no forces, no appends for inner calls at all.
	st = statsDelta(pc, func() { callInt(t, ref, "RunBatch", "Double", 5, 3) })
	if st.Appends != 2 || st.Forces != 2 {
		t.Errorf("learned stats = %+v, want envelope only (2 appends, 2 forces)", st)
	}
}

// TestBaselineDuplicateAnsweredFromLogAfterRecovery: the baseline logs
// full message-2 records; after a crash, the rebuilt last call table
// holds only LSNs and the duplicate's reply is read from the log.
func TestBaselineDuplicateAnsweredFromLogAfterRecovery(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.LogMode = LogBaseline
	m, p := startProc(t, u, "evo1", "srv", cfg)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	caller := ids.ComponentAddr{Machine: "evoX", Proc: 2, Comp: 9}
	args, n, _ := encodeArgsHelper(4)
	call := &msg.Call{
		ID:         ids.CallID{Caller: caller, Seq: 3},
		Target:     h.URI(),
		Method:     "Add",
		Args:       args,
		NumArgs:    n,
		CallerType: msg.Persistent,
	}
	r1 := serve(t, p, call)
	if r1.Fault != "" {
		t.Fatalf("call: %+v", r1)
	}
	p.Crash()

	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	// The entry must exist with its reply recoverable (from memory via
	// the final-call replay, or from the baseline msg2 record).
	r2 := serve(t, p2, call)
	if r2.Fault != "" {
		t.Fatalf("duplicate after recovery: %+v", r2)
	}
	if string(r2.Results) != string(r1.Results) {
		t.Error("duplicate reply differs after baseline recovery")
	}
	h2, _ := p2.Lookup("Counter")
	if got := h2.Object().(*Counter).N; got != 4 {
		t.Errorf("counter = %d, want 4 (no re-execution)", got)
	}
}

// TestLastCallTableSharedAcrossContexts: "The last call table is shared
// among all the contexts in a process so that the entry for a client is
// updated even if the client calls two different components in the same
// process" (Section 4.1).
func TestLastCallTableSharedAcrossContexts(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	hA, _ := p.Create("A", &Counter{})
	hB, _ := p.Create("B", &Counter{})
	caller := ids.ComponentAddr{Machine: "evoX", Proc: 1, Comp: 1}
	mk := func(seq uint64, target ids.URI) *msg.Call {
		args, n, _ := encodeArgsHelper(1)
		return &msg.Call{
			ID: ids.CallID{Caller: caller, Seq: seq}, Target: target,
			Method: "Add", Args: args, NumArgs: n, CallerType: msg.Persistent,
		}
	}
	if r := serve(t, p, mk(1, hA.URI())); r.Fault != "" {
		t.Fatal(r.Fault)
	}
	if r := serve(t, p, mk(2, hB.URI())); r.Fault != "" {
		t.Fatal(r.Fault)
	}
	// Seq 1 to A is now older than the caller's last call (2, to B):
	// stale, rejected — the shared table kept only the newest.
	if r := serve(t, p, mk(1, hA.URI())); r.Fault == "" {
		t.Error("stale cross-context call accepted")
	}
	// The newest duplicate is still answered.
	if r := serve(t, p, mk(2, hB.URI())); r.Fault != "" {
		t.Errorf("duplicate to B rejected: %s", r.Fault)
	}
	if got := hB.Object().(*Counter).N; got != 1 {
		t.Errorf("B executed twice: %d", got)
	}
}
