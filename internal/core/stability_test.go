package core

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/wal"
)

// TestRepeatedRecoveryDoesNotGrowLog: replay must not re-log the
// messages it replays — otherwise every crash/recover cycle would
// inflate the log and slow the next recovery. Crashing and recovering
// the same process repeatedly, with no new work in between, must leave
// the log end exactly where it was.
func TestRepeatedRecoveryDoesNotGrowLog(t *testing.T) {
	for _, mode := range []LogMode{LogBaseline, LogOptimized} {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.LogMode = mode
		m, p := startProc(t, u, "evo1", "srv", cfg)
		h, err := p.Create("KV", &KVStore{})
		if err != nil {
			t.Fatal(err)
		}
		ref := u.ExternalRef(h.URI())
		for i := 0; i < 20; i++ {
			if _, err := ref.Call("Set", "k", "v"); err != nil {
				t.Fatal(err)
			}
		}

		logEnd := func(p *Process) ids.LSN { return p.log.(*wal.Set).End() }
		var end ids.LSN
		cur := p
		for cycle := 0; cycle < 4; cycle++ {
			cur.Crash()
			p2, err := m.StartProcess("srv", cfg)
			if err != nil {
				t.Fatalf("%v cycle %d: %v", mode, cycle, err)
			}
			if cycle == 0 {
				end = logEnd(p2)
			} else if logEnd(p2) != end {
				t.Fatalf("%v cycle %d: log end moved from %v to %v — replay re-logged messages",
					mode, cycle, end, logEnd(p2))
			}
			cur = p2
		}
		// The state is still correct after four recovery generations.
		res, err := ref.Call("Snapshot")
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].(map[string]string)["k"]; got != "v" {
			t.Errorf("%v: recovered value %q", mode, got)
		}
		h2, _ := cur.Lookup("KV")
		if ops := h2.Object().(*KVStore).Ops; ops != 20 {
			t.Errorf("%v: ops = %d, want 20", mode, ops)
		}
		cur.Close()
	}
}

// TestRecoveryIdempotentForDuplicates: after any number of recovery
// generations, a persistent client's duplicate of its last call is
// still answered without re-execution (conditions 1+3 composed).
func TestRecoveryIdempotentForDuplicates(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	m, pa := startProc(t, u, "evo1", "cli", cfg)
	_ = m
	mb, pb := startProc(t, u, "evo2", "srv", cfg)
	defer pa.Close()
	hc, _ := pb.Create("Counter", &Counter{})
	hr, _ := pa.Create("Relay", &Relay{Server: NewRef(hc.URI())})
	ref := u.ExternalRef(hr.URI())
	callInt(t, ref, "Forward", 2)
	callInt(t, ref, "Forward", 2)

	cur := pb
	for cycle := 0; cycle < 3; cycle++ {
		cur.Crash()
		p2, err := mb.StartProcess("srv", cfg)
		if err != nil {
			t.Fatal(err)
		}
		cur = p2
	}
	// New work continues with correct sequencing after three cycles.
	if got := callInt(t, ref, "Forward", 2); got != 6 {
		t.Errorf("Forward after 3 recovery generations -> %d, want 6", got)
	}
	cur.Close()
}
