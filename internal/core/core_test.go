package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Test components.

// Counter is a persistent server: its whole state is one exported int.
type Counter struct {
	N int
}

func (c *Counter) Add(d int) (int, error) { c.N += d; return c.N, nil }
func (c *Counter) Get() (int, error)      { return c.N, nil }

// Relay is a persistent middle component: it forwards to a server and
// counts its own calls, exercising the persistent→persistent path.
type Relay struct {
	Server *Ref
	Calls  int
}

func (r *Relay) Forward(d int) (int, error) {
	r.Calls++
	res, err := r.Server.Call("Add", d)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// Fan calls three distinct servers per execution (Section 3.5's
// distinct-server pattern).
type Fan struct {
	A, B, C *Ref
	Total   int
}

func (f *Fan) Spread(d int) (int, error) {
	for _, r := range []*Ref{f.A, f.B, f.C} {
		res, err := r.Call("Add", d)
		if err != nil {
			return 0, err
		}
		f.Total = res[0].(int)
	}
	return f.Total, nil
}

// Pure is a functional component: stateless, no outgoing calls.
type Pure struct{}

func (Pure) Double(x int) (int, error) { return 2 * x, nil }

// Prober is a read-only component: stateless but reads a persistent
// server.
type Prober struct {
	Server *Ref
}

func (p *Prober) Probe() (int, error) {
	res, err := p.Server.Call("Get")
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

func testConfig() Config {
	return Config{
		LogMode:          LogOptimized,
		SpecializedTypes: true,
		RetryInterval:    2 * time.Millisecond,
		RetryLimit:       50,
	}
}

func newTestUniverse(t *testing.T) *Universe { return newTestUniverseOn(t, powerCut()) }

func newTestUniverseOn(t *testing.T, dev *crashDev) *Universe {
	t.Helper()
	u, err := NewUniverse(UniverseConfig{Dir: t.TempDir(), dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func startProc(t *testing.T, u *Universe, machine, proc string, cfg Config) (*Machine, *Process) {
	t.Helper()
	m, err := u.AddMachine(machine)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess(proc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func callInt(t *testing.T, ref *Ref, method string, args ...any) int {
	t.Helper()
	res, err := ref.Call(method, args...)
	if err != nil {
		t.Fatalf("%s failed: %v", method, err)
	}
	if len(res) != 1 {
		t.Fatalf("%s: want 1 result, got %v", method, res)
	}
	n, ok := res[0].(int)
	if !ok {
		t.Fatalf("%s: result is %T, want int", method, res[0])
	}
	return n
}

func TestExternalCallRoundTrip(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for want := 1; want <= 3; want++ {
		if got := callInt(t, ref, "Add", 1); got != want {
			t.Errorf("Add -> %d, want %d", got, want)
		}
	}
	if got := callInt(t, ref, "Get"); got != 3 {
		t.Errorf("Get -> %d, want 3", got)
	}
}

func TestExternalToPersistentForcesTwicePerCall(t *testing.T) {
	// Algorithm 3: message 1 long record + force, message 2 short
	// record + force → 2 forces per call, in both modes (Table 4:
	// External→Persistent identical for baseline and optimized).
	for _, mode := range []LogMode{LogBaseline, LogOptimized} {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.LogMode = mode
		_, p := startProc(t, u, "evo1", "srv", cfg)
		h, err := p.Create("Counter", &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		ref := u.ExternalRef(h.URI())
		p.ResetLogStats()
		const calls = 5
		for i := 0; i < calls; i++ {
			callInt(t, ref, "Add", 1)
		}
		if got := p.LogStats().Forces; got != 2*calls {
			t.Errorf("%v: forces = %d, want %d", mode, got, 2*calls)
		}
		p.Close()
	}
}

func TestPersistentToPersistentForceCounts(t *testing.T) {
	// The heart of Table 4: baseline logs and forces four messages at
	// the client-side persistent component and two at the server;
	// optimized halves the client (the two receive messages are not
	// forced and the two sends are not even written) and leaves one
	// force at the server.
	cases := []struct {
		mode                      LogMode
		relayForces, serverForces int64
	}{
		// Relay (persistent, serving an external client): msg1-in
		// force + msg3 force + msg4 force + msg2-out force = 4.
		// Counter: msg1 force + msg2 force = 2.
		{LogBaseline, 4, 2},
		// Relay: msg1-in logged+forced (external client); the msg3
		// force is then free — nothing new is buffered (this is the
		// force-combining Section 3.1.1 highlights); msg4 logged
		// unforced; msg2-out short record + force = 2 physical forces.
		// Counter: msg1 unforced, force at msg2 = 1.
		{LogOptimized, 2, 1},
	}
	for _, tc := range cases {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.LogMode = tc.mode
		_, pa := startProc(t, u, "evo1", "cli", cfg)
		_, pb := startProc(t, u, "evo2", "srv", cfg)
		hc, err := pb.Create("Counter", &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := pa.Create("Relay", &Relay{Server: NewRef(hc.URI())})
		if err != nil {
			t.Fatal(err)
		}
		ref := u.ExternalRef(hr.URI())
		pa.ResetLogStats()
		pb.ResetLogStats()
		const calls = 4
		for i := 1; i <= calls; i++ {
			if got := callInt(t, ref, "Forward", 1); got != i {
				t.Errorf("%v: Forward -> %d, want %d", tc.mode, got, i)
			}
		}
		if got := pa.LogStats().Forces; got != tc.relayForces*calls {
			t.Errorf("%v: relay forces = %d, want %d", tc.mode, got, tc.relayForces*calls)
		}
		if got := pb.LogStats().Forces; got != tc.serverForces*calls {
			t.Errorf("%v: server forces = %d, want %d", tc.mode, got, tc.serverForces*calls)
		}
		pa.Close()
		pb.Close()
	}
}

func TestCrashRecoveryRestoresState(t *testing.T) {
	for _, mode := range []LogMode{LogBaseline, LogOptimized} {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.LogMode = mode
		m, p := startProc(t, u, "evo1", "srv", cfg)
		h, err := p.Create("Counter", &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		uri := h.URI()
		ref := u.ExternalRef(uri)
		for i := 0; i < 7; i++ {
			callInt(t, ref, "Add", 2)
		}
		p.Crash()

		p2, err := m.StartProcess("srv", cfg)
		if err != nil {
			t.Fatalf("%v: restart: %v", mode, err)
		}
		if !p2.Recovered() {
			t.Errorf("%v: restarted process did not recover", mode)
		}
		if got := callInt(t, ref, "Get"); got != 14 {
			t.Errorf("%v: recovered counter = %d, want 14", mode, got)
		}
		// The recovered component keeps working and its identity is
		// intact.
		if got := callInt(t, ref, "Add", 1); got != 15 {
			t.Errorf("%v: post-recovery Add -> %d, want 15", mode, got)
		}
		p2.Close()
	}
}

func TestRecoveryRestoresRefFields(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	ma, pa := startProc(t, u, "evo1", "cli", cfg)
	_, pb := startProc(t, u, "evo2", "srv", cfg)
	defer pb.Close()
	hc, err := pb.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pa.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hr.URI())
	callInt(t, ref, "Forward", 5)
	pa.Crash()

	pa2, err := ma.StartProcess("cli", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pa2.Close()
	// The relay's Server ref was restored from the creation record and
	// must be live again.
	if got := callInt(t, ref, "Forward", 5); got != 10 {
		t.Errorf("Forward after relay recovery -> %d, want 10", got)
	}
	h2, ok := pa2.Lookup("Relay")
	if !ok {
		t.Fatal("Relay not found after recovery")
	}
	relay := h2.Object().(*Relay)
	if relay.Calls != 2 {
		t.Errorf("relay.Calls = %d, want 2 (one replayed + one live)", relay.Calls)
	}
}

func TestDuplicateCallAnsweredFromLastCallTable(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	counter := h.Object().(*Counter)

	caller := ids.ComponentAddr{Machine: "evo9", Proc: 1, Comp: 1}
	mkCall := func(seq uint64) *msg.Call {
		args, n, _ := encodeTestArgs(t, 3)
		return &msg.Call{
			ID:         ids.CallID{Caller: caller, Seq: seq},
			Target:     h.URI(),
			Method:     "Add",
			Args:       args,
			NumArgs:    n,
			CallerType: msg.Persistent,
		}
	}
	r1 := serve(t, p, mkCall(1))
	if r1.Fault != "" || r1.AppErr != "" {
		t.Fatalf("first call failed: %+v", r1)
	}
	if counter.N != 3 {
		t.Fatalf("counter = %d after first call", counter.N)
	}
	// Duplicate (client retry after losing the reply): same ID.
	r2 := serve(t, p, mkCall(1))
	if r2.Fault != "" {
		t.Fatalf("duplicate call faulted: %+v", r2)
	}
	if counter.N != 3 {
		t.Errorf("duplicate re-executed: counter = %d, want 3", counter.N)
	}
	if string(r2.Results) != string(r1.Results) {
		t.Error("duplicate reply differs from original")
	}
	// A stale (older) call is rejected.
	r3 := serve(t, p, mkCall(0))
	if r3.Fault == "" {
		t.Error("stale call was accepted")
	}
	// A new call proceeds.
	r4 := serve(t, p, mkCall(2))
	if r4.Fault != "" || counter.N != 6 {
		t.Errorf("next call: fault=%q counter=%d", r4.Fault, counter.N)
	}
}

func encodeTestArgs(t *testing.T, args ...any) ([]byte, int, error) {
	t.Helper()
	data, n, err := encodeArgsHelper(args...)
	if err != nil {
		t.Fatal(err)
	}
	return data, n, nil
}

// resultCountNet rewrites the NumResults header of every reply it
// carries, leaving the value stream as the server encoded it.
type resultCountNet struct {
	transport.Network
	numResults int
}

func (n *resultCountNet) Send(addr string, req []byte) ([]byte, error) {
	resp, err := n.Network.Send(addr, req)
	if err != nil {
		return nil, err
	}
	r, err := msg.DecodeReply(resp)
	if err != nil {
		return nil, err
	}
	r.NumResults = n.numResults
	return msg.EncodeReply(r)
}

// TestReplyResultCountMismatch: a reply whose value stream holds a
// different number of results than its header says fails the call with
// both counts, as Bind fails a call whose argument count does not match.
func TestReplyResultCountMismatch(t *testing.T) {
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: t.TempDir(),
		Net: &resultCountNet{Network: transport.NewMem(disk.NewRealClock(1), 0), numResults: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.ExternalRef(h.URI()).Call("Add", 1)
	if err == nil {
		t.Fatalf("a reply of 1 result whose header says 2 was accepted: %v", res)
	}
	if !strings.Contains(err.Error(), "carries 1 results") || !strings.Contains(err.Error(), "says 2") {
		t.Errorf("error %q does not name both counts", err)
	}
}

// otherCallNet answers every call that carries an ID with the reply to
// another call — its own ID's next sequence number — and counts those
// sends; an external call's reply passes as the server wrote it.
type otherCallNet struct {
	transport.Network
	sends atomic.Int64
}

func (n *otherCallNet) Send(addr string, req []byte) ([]byte, error) {
	resp, err := n.Network.Send(addr, req)
	if err != nil {
		return nil, err
	}
	call, err := msg.DecodeCall(req)
	if err != nil || call.ID.IsZero() {
		return resp, err
	}
	n.sends.Add(1)
	r, err := msg.DecodeReply(resp)
	if err != nil {
		return nil, err
	}
	r.ID.Seq++
	return msg.EncodeReply(r)
}

// TestReplyToAnotherCallRefused: a reply whose ID is not its call's is
// refused as an undecodable one is — the call fails naming both IDs,
// it is not retried, and the caller logs no outgoing-reply record (a
// replay would take that reply for the call's).
func TestReplyToAnotherCallRefused(t *testing.T) {
	net := &otherCallNet{Network: transport.NewMem(disk.NewRealClock(1), 0)}
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: t.TempDir(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	_, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer ps.Close()
	_, pc := startProc(t, u, "evo1", "cli", testConfig())
	hc, err := ps.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := pc.Create("R", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.ExternalRef(hr.URI()).WithoutRetry().Call("Forward", 1)
	want := ids.CallID{Caller: hr.cx.addr(), Seq: 1}
	answered := want
	answered.Seq++
	if err == nil || !strings.Contains(err.Error(), want.String()) || !strings.Contains(err.Error(), answered.String()) {
		t.Fatalf("Forward over a reply to another call = %v, want an error naming %v and %v", err, want, answered)
	}
	if n := net.sends.Load(); n != 1 {
		t.Errorf("the call went out %d times, want once: a reply to another call is not retried", n)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenSet(pc.LogDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Scan(ids.NilLSN, func(rec wal.Record) error {
		if rec.Type == recOutgoingReply {
			t.Errorf("the caller logged an outgoing-reply record at %v", rec.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
