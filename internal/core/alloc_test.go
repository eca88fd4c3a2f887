package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/rpc"
)

// Allocation-regression gates for the paper's Figure-1 hot path: the
// per-call software overhead (envelope and value codec, record
// construction, WAL framing) must stay gone. Each gate is the figure
// measured when its layer was last optimized plus ~25% headroom, so
// toolchain drift does not flake but a reintroduced per-message
// encoder does.

// callPathAllocGate bounds one persistent↔persistent optimized call:
// 13.5 allocs measured with one buffer per decoded envelope, the
// argument list encoded into pooled scratch, the reply decoded into the
// caller's own Reply, stack scratch in the server's bound call, the
// method called by its type's Func (no receiver thunk), per-context hot
// records and the holder-recycling buffer pool (17.5 with a string copy
// and a value-list copy per envelope, a fresh argument list and a heap
// Reply; 18.5 with a method value per instance, 27.5 before the rest;
// 947 with gob envelopes, 394 with gob values only). What is left per
// call: the client's Call (its Method is a trace span's), the server's
// decoded Call, one buffer per decoded call and reply, the server's
// Reply, its result list, the reply envelope, the last-call entry, the
// send's address string, the decoded result list and its boxed int,
// and reflect's result slice and box for the server's method.
const callPathAllocGate = 17.0

// AllocBatcher drives n persistent↔persistent calls per envelope call,
// so the inner-call allocation cost can be isolated from the external
// envelope (the same subtraction the bench harness uses for Table 4).
type AllocBatcher struct {
	Server *Ref
	Sum    int
}

func (b *AllocBatcher) RunBatch(n int) (int, error) {
	for i := 0; i < n; i++ {
		res, err := b.Server.Call("Add", 1)
		if err != nil {
			return 0, err
		}
		b.Sum += res[0].(int)
	}
	return b.Sum, nil
}

// measureCallPathAllocs returns the average heap allocations of one
// persistent↔persistent call (Table 4 optimized row: client and server
// both persistent, optimized logging), envelope cost subtracted.
func measureCallPathAllocs(t *testing.T) float64 {
	return measureCallPathAllocsIn(t, newTestUniverse(t))
}

// measureCallPathAllocsIn is measureCallPathAllocs against a universe
// under the caller's control — the traced gate passes one with a
// flight recorder wired in.
func measureCallPathAllocsIn(t *testing.T, u *Universe) float64 {
	t.Helper()
	_, ps := startProc(t, u, "evo2", "srv", testConfig())
	defer ps.Close()
	_, pc := startProc(t, u, "evo1", "cli", testConfig())
	defer pc.Close()
	hs, err := ps.Create("Server", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := pc.Create("Batcher", &AllocBatcher{Server: NewRef(hs.URI())})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(hb.URI())
	drive := func(n int) {
		if _, err := ref.Call("RunBatch", n); err != nil {
			t.Fatal(err)
		}
	}
	drive(1) // warm up: learn server types, prime pools

	const batch = 100
	envelope := testing.AllocsPerRun(3, func() { drive(0) })
	withCalls := testing.AllocsPerRun(3, func() { drive(batch) })
	per := (withCalls - envelope) / batch
	if per < 0 {
		per = 0
	}
	return per
}

// measureWALPathAllocs returns the allocations of one appendRec on the
// incoming-call record path (encode + WAL framing), the log half of
// the per-call cost.
func measureWALPathAllocs(t *testing.T) float64 {
	t.Helper()
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	args, n, err := rpc.EncodeArgs(7)
	if err != nil {
		t.Fatal(err)
	}
	rec := &incomingRec{
		Ctx: 1,
		Call: msg.Call{
			ID:         ids.CallID{Caller: ids.ComponentAddr{Machine: "evo1", Proc: 1, Comp: 2}, Seq: 9},
			Target:     ids.MakeURI("evo1", "srv", "Server"),
			Method:     "Add",
			Args:       args,
			NumArgs:    n,
			CallerType: msg.Persistent,
			CallerURI:  ids.MakeURI("evo1", "cli", "Batcher"),
		},
	}
	if _, err := p.appendRec(rec, nil); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := p.appendRec(rec, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocsCallPath(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow under -short")
	}
	got := measureCallPathAllocs(t)
	t.Logf("persistent↔persistent call path: %.1f allocs/call", got)
	if got > callPathAllocGate {
		t.Errorf("call path allocates %.1f/call; gate is ≤ %.1f", got, callPathAllocGate)
	}
}

// TestAllocsTracedCallPath gates the tracing tentpole's allocation
// budget: with a flight recorder wired into the universe, the same
// persistent↔persistent call path must stay within +2 allocs/call of
// the untraced baseline. Span recording itself is wait-free and
// alloc-free (trace's TestRecordZeroAllocs); the +2 headroom covers
// envelope-level trace minting and toolchain drift.
func TestAllocsTracedCallPath(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow under -short")
	}
	base := measureCallPathAllocs(t)
	u, _ := newTracedUniverse(t)
	traced := measureCallPathAllocsIn(t, u)
	t.Logf("call path: %.1f allocs/call untraced, %.1f traced", base, traced)
	if traced > base+2 || base > callPathAllocGate {
		t.Errorf("tracing costs %.1f allocs/call (untraced %.1f, traced %.1f); gate is ≤ +2 over a base ≤ %.1f",
			traced-base, base, traced, callPathAllocGate)
	}
}

// replayAllocGate bounds a restart's allocations per replayed external
// call: 4.15 measured over an eager restart of 4 contexts and 2,000
// Add(1) calls from their creation — the Pass 1 scan, the walk's
// decode (one buffer per record for its call's strings and Args) and
// the replay, with the replayed results not encoded (5.15 with the
// strings and Args copied apart; 8.15 when every replay encoded its
// results, bound a method value per instance and allocated each
// decoded record alone).
const replayAllocGate = 5.2

func TestAllocsReplayedCall(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow under -short")
	}
	const contexts, calls = 4, 2000
	u := newTestUniverse(t)
	m, p := startProc(t, u, "evo1", "srv", testConfig())
	var refs [contexts]*Ref
	for i := range refs {
		h, err := p.Create(fmt.Sprintf("C%d", i), &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = u.ExternalRef(h.URI())
	}
	for c := 0; c < calls; c++ {
		callInt(t, refs[c%contexts], "Add", 1)
	}
	p.Crash()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p2, err := m.StartProcess("srv", testConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	stats, _ := p2.LastRecovery()
	if stats.CallsReplayed != calls {
		t.Fatalf("replayed %d calls, want %d", stats.CallsReplayed, calls)
	}
	got := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("eager restart: %.2f allocs per replayed call", got)
	if got > replayAllocGate {
		t.Errorf("a restart allocates %.2f per replayed call; gate is ≤ %.1f", got, replayAllocGate)
	}
}

func TestAllocsAppendRec(t *testing.T) {
	// Baseline before the binary record codec: ~27 allocs per
	// incoming-record append (encoder + buffer + WAL frame + crc copy).
	const prePR = 27.0
	got := measureWALPathAllocs(t)
	t.Logf("appendRec(incoming): %.1f allocs/record (pre-PR %.1f)", got, prePR)
	if got > prePR/2 {
		t.Errorf("appendRec allocates %.1f/record; gate is ≤ %.1f (50%% of pre-PR %.1f)",
			got, prePR/2, prePR)
	}
}
