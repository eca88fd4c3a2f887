package core

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

// TestCheckpointReclaimsLogSpace: with checkpointing on, a long
// workload's log stays bounded with no call to make — each published
// checkpoint deletes the segments every restart point has moved past —
// and recovery still works.
func TestCheckpointReclaimsLogSpace(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 20
	cfg.CheckpointEvery = 40
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(4 * 1024)
	h, err := p.Create("KV", &KVStore{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	const calls = 600
	for i := 0; i < calls; i++ {
		if _, err := ref.Call("Set", "k", "some-reasonably-long-value-to-grow-the-log"); err != nil {
			t.Fatal(err)
		}
	}
	st := p.LogStats()
	if st.TrimmedBytes == 0 {
		t.Fatal("nothing was trimmed")
	}
	if st.Segments > 8 {
		t.Errorf("log kept %d segments; trimming is not keeping up", st.Segments)
	}

	// Recovery from the trimmed log.
	p.Crash()
	p2, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatalf("recover from trimmed log: %v", err)
	}
	defer p2.Close()
	res, err := ref.Call("Snapshot")
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].(map[string]string)
	if got["k"] != "some-reasonably-long-value-to-grow-the-log" {
		t.Errorf("recovered value = %q", got["k"])
	}
	h2, _ := p2.Lookup("KV")
	if ops := h2.Object().(*KVStore).Ops; ops != calls {
		t.Errorf("recovered ops = %d, want %d", ops, calls)
	}
}

// TestNoTrimBeforeCheckpoint: without a published checkpoint, recovery
// scans from the log start, so no force trims anything.
func TestNoTrimBeforeCheckpoint(t *testing.T) {
	u := newTestUniverse(t)
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	defer p.Close()
	p.SetLogSegmentBytes(1024)
	h, err := p.Create("Counter", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 100; i++ {
		callInt(t, ref, "Add", 1)
	}
	if _, err := p.log.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.LogStats().TrimmedBytes; got != 0 {
		t.Errorf("trimmed %d bytes without a checkpoint", got)
	}
}

// quietCall is the one call of a persistent caller in another process,
// Add(5) to h's Counter, which it then never follows with another. It
// says the caller knows the server, so its reply carries no
// attachment, which a reply record does not keep.
func quietCall(t *testing.T, h *Handle) *msg.Call {
	t.Helper()
	args, n, err := encodeArgsHelper(5)
	if err != nil {
		t.Fatal(err)
	}
	return &msg.Call{
		ID:     ids.CallID{Caller: ids.ComponentAddr{Machine: "evo9", Proc: 1, Comp: 1}, Seq: 1},
		Target: h.URI(), Method: "Add", Args: args, NumArgs: n,
		CallerType: msg.Persistent, KnowsServer: true,
	}
}

// TestTrimFloorNotPinned: a checkpoint bounds the log whatever else the
// process hosts. A Counter saves its state every 10 calls and the
// process checkpoints every 20, on 512-byte segments. Beside it sits an
// idle persistent context, an idle stateless one, an idle External one
// (which a restart then brings back as of the latest checkpoint, not at
// its creation state), or a persistent caller whose one call the
// Counter answered before the caller went quiet — one that knows the
// server's type, and one that does not, whose answers carry the reply
// attachment. None of them may hold the trim floor: a checkpoint saves the
// state of every idle context above the mark it replaces, and a state
// save writes a reply logged below the mark again. A restart then
// recovers every context, and the quiet caller's retry of its call is
// answered, byte for byte, from the reply written again: the first copy
// is trimmed.
func TestTrimFloorNotPinned(t *testing.T) {
	const calls = 200
	// quietRow is the quiet caller's row; knows is its call's KnowsServer.
	quietRow := func(knows bool) func(t *testing.T, _ *Universe, p *Process, h *Handle) (func(*Process), int) {
		quiet := func(h *Handle) *msg.Call {
			c := quietCall(t, h)
			c.KnowsServer = knows
			return c
		}
		return func(t *testing.T, _ *Universe, p *Process, h *Handle) (func(*Process), int) {
			var r msg.Reply
			first := bytes.Clone(p.serveCall(quiet(h), &r))
			if r.Fault != "" || r.AppErr != "" || r.HasAttachment == knows {
				t.Fatalf("the quiet caller's call failed or has the wrong attachment: %+v", r)
			}
			if err := h.SaveState(); err != nil {
				t.Fatal(err)
			}
			logged := p.lastCalls.get(quiet(h).ID.Caller).replyLSN
			return func(p *Process) {
				if start := p.log.Start(); logged >= start {
					t.Errorf("the reply first logged at %v is still in the log (from %v)", logged, start)
				}
				var r msg.Reply
				if again := p.serveCall(quiet(h), &r); !bytes.Equal(again, first) {
					t.Errorf("the retried call was answered with %x, first with %x", again, first)
				}
			}, 5
		}
	}
	for _, row := range []struct {
		name string
		// beside sets the neighbour up before the Counter's calls; the
		// function it returns checks it after the restart. added is
		// what the neighbour added to the Counter.
		beside func(t *testing.T, u *Universe, p *Process, h *Handle) (check func(p *Process), added int)
	}{
		{"idle persistent neighbour", func(t *testing.T, u *Universe, p *Process, _ *Handle) (func(*Process), int) {
			idle, err := p.Create("Idle", &Counter{N: 7})
			if err != nil {
				t.Fatal(err)
			}
			return func(*Process) {
				if got := callInt(t, u.ExternalRef(idle.URI()), "Get"); got != 7 {
					t.Errorf("idle neighbour after trim+recovery = %d, want 7", got)
				}
			}, 0
		}},
		{"idle stateless neighbour", func(t *testing.T, u *Universe, p *Process, _ *Handle) (func(*Process), int) {
			pure, err := p.Create("Pure", &Pure{}, WithType(msg.Functional))
			if err != nil {
				t.Fatal(err)
			}
			return func(*Process) {
				if got := callInt(t, u.ExternalRef(pure.URI()), "Double", 4); got != 8 {
					t.Errorf("stateless neighbour after trim+recovery: Double(4) = %d", got)
				}
			}, 0
		}},
		{"idle External neighbour", func(t *testing.T, u *Universe, p *Process, _ *Handle) (func(*Process), int) {
			ext, err := p.Create("Ext", &Counter{N: 7}, WithType(msg.External))
			if err != nil {
				t.Fatal(err)
			}
			callInt(t, u.ExternalRef(ext.URI()), "Add", 3) // logged nowhere
			return func(*Process) {
				if got := callInt(t, u.ExternalRef(ext.URI()), "Get"); got != 10 {
					t.Errorf("External neighbour after trim+recovery = %d, want 10, its state at the last checkpoint", got)
				}
			}, 0
		}},
		{"quiet persistent caller", quietRow(true)},
		{"quiet persistent caller, server unknown", quietRow(false)},
	} {
		t.Run(row.name, func(t *testing.T) {
			u := newTestUniverse(t)
			defer u.Shutdown()
			cfg := testConfig()
			cfg.SaveStateEvery = 10
			cfg.CheckpointEvery = 20
			m, p := startProc(t, u, "evo1", "srv", cfg)
			p.SetLogSegmentBytes(512)
			h, err := p.Create("Counter", &Counter{})
			if err != nil {
				t.Fatal(err)
			}
			check, added := row.beside(t, u, p, h)
			ref := u.ExternalRef(h.URI())
			for i := 0; i < calls; i++ {
				callInt(t, ref, "Add", 1)
			}
			st := p.LogStats()
			t.Logf("%d segments, %d bytes trimmed", st.Segments, st.TrimmedBytes)
			if st.TrimmedBytes == 0 || st.Segments > 4 {
				t.Errorf("the log keeps %d segments and trimmed %d bytes: its floor is pinned", st.Segments, st.TrimmedBytes)
			}
			p.Crash()
			if p, err = m.StartProcess("srv", cfg); err != nil {
				t.Fatalf("recover from the trimmed log: %v", err)
			}
			defer p.Close()
			check(p)
			if got := callInt(t, ref, "Get"); got != calls+added {
				t.Errorf("Counter after trim+recovery = %d, want %d", got, calls+added)
			}
		})
	}
}
