package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
)

// Leaky is a counter whose Leak mutates its state and then returns a
// value the codec cannot carry (leaked is never registered): the call
// runs, and its reply faults.
type Leaky struct {
	N int
}

type leaked struct{ N int }

func (l *Leaky) Add(d int) (int, error)     { l.N += d; return l.N, nil }
func (l *Leaky) Get() (int, error)          { return l.N, nil }
func (l *Leaky) Leak(d int) (leaked, error) { l.N += d; return leaked{l.N}, nil }

// logUnbound appends what a server that logged before it bound wrote
// for a call it then refused: the call's incoming record, forced.
func logUnbound(t *testing.T, p *Process, name string, call *msg.Call) {
	t.Helper()
	p.mu.Lock()
	cx := p.byName[name]
	p.mu.Unlock()
	cx.mu.Lock()
	defer cx.mu.Unlock()
	rec := incomingRec{Ctx: cx.parent.id, Call: *call}
	lsn, err := p.appendRec(&rec, &cx.chainHead)
	if err != nil {
		t.Fatal(err)
	}
	cx.lastLSN = lsn
	if err := p.force(nil); err != nil {
		t.Fatal(err)
	}
}

// TestFaultedCallDoesNotPoisonRestart: a call that faults at the server
// must not stop the process from restarting. A call that cannot bind —
// an argument of the wrong type or count — faults before anything is
// logged; one such call logged anyway (by a server that logged before
// it bound) is skipped by the replay, as it never ran. A call whose
// results do not encode ran before it faulted: the replay runs it
// again. Either way the restarted state is the live one, eager and lazy.
func TestFaultedCallDoesNotPoisonRestart(t *testing.T) {
	shapes := []struct {
		name   string
		method string
		args   []any
		fault  string // in the caller's error
		ran    bool   // the live call changed the state
	}{
		{"wrong type", "Add", []any{2.5}, "float64 is not assignable to int", false},
		{"wrong count", "Add", []any{1, 2}, "wants 1 args, got 2", false},
		{"results do not encode", "Leak", []any{10}, "not registered", true},
	}
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%v/%s", mode, sh.name), func(t *testing.T) {
				u := newTestUniverse(t)
				defer u.Shutdown()
				m, p := startProc(t, u, "evo1", "srv", testConfig())
				h, err := p.Create("Leaky", &Leaky{})
				if err != nil {
					t.Fatal(err)
				}
				ref := u.ExternalRef(h.URI())
				callInt(t, ref, "Add", 1)
				appends := p.LogStats().Appends
				if _, err := ref.Call(sh.method, sh.args...); err == nil || !strings.Contains(err.Error(), sh.fault) {
					t.Fatalf("%s%v: err = %v, want a fault naming %q", sh.method, sh.args, err, sh.fault)
				}
				if logged := p.LogStats().Appends - appends; !sh.ran && logged != 0 {
					t.Errorf("a call that did not bind logged %d records", logged)
				}
				if !sh.ran {
					args, n, err := encodeArgsHelper(sh.args...)
					if err != nil {
						t.Fatal(err)
					}
					logUnbound(t, p, "Leaky", &msg.Call{Target: h.URI(), Method: sh.method, Args: args, NumArgs: n})
				}
				callInt(t, ref, "Add", 1)
				live := h.Object().(*Leaky).N
				if want := map[bool]int{false: 2, true: 12}[sh.ran]; live != want {
					t.Fatalf("live state %d, want %d", live, want)
				}
				p.Crash()

				cfg := testConfig()
				cfg.Recovery = Recovery{Mode: mode}
				p2, err := m.StartProcess("srv", cfg)
				if err != nil {
					t.Fatalf("restart: %v", err)
				}
				defer p2.Close()
				if got := callInt(t, ref, "Get"); got != live {
					t.Errorf("restarted state %d, want the live %d", got, live)
				}
				if err := p2.DrainRecovery(); err != nil {
					t.Errorf("drain: %v", err)
				}
			})
		}
	}
}

// TestDuplicateAfterRestartGetsTheSameReply: a persistent caller's
// duplicate sent after a crash and restart is answered from the
// last-call table the replay rebuilt, with the reply bytes it got
// before the crash — eager, and lazy, where the duplicate is the
// context's first touch.
func TestDuplicateAfterRestartGetsTheSameReply(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), func(t *testing.T) {
			u := newTestUniverse(t)
			defer u.Shutdown()
			m, p := startProc(t, u, "evo1", "srv", testConfig())
			h, err := p.Create("Counter", &Counter{})
			if err != nil {
				t.Fatal(err)
			}
			caller := ids.ComponentAddr{Machine: "evo9", Proc: 1, Comp: 1}
			mkCall := func(seq uint64, d int) *msg.Call {
				args, n, _ := encodeTestArgs(t, d)
				return &msg.Call{
					ID:         ids.CallID{Caller: caller, Seq: seq},
					Target:     h.URI(),
					Method:     "Add",
					Args:       args,
					NumArgs:    n,
					CallerType: msg.Persistent,
				}
			}
			serve(t, p, mkCall(1, 1<<20))
			before := serve(t, p, mkCall(2, 3))
			if before.Fault != "" || before.AppErr != "" {
				t.Fatalf("call failed: %+v", before)
			}
			p.Crash()

			cfg := testConfig()
			cfg.Recovery = Recovery{Mode: mode}
			p2, err := m.StartProcess("srv", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			after := serve(t, p2, mkCall(2, 3))
			if after.Fault != "" {
				t.Fatalf("duplicate faulted: %+v", after)
			}
			if !bytes.Equal(after.Results, before.Results) || after.NumResults != before.NumResults || after.AppErr != before.AppErr {
				t.Errorf("duplicate after restart got %x (%d results, %q), before the crash %x (%d, %q)",
					after.Results, after.NumResults, after.AppErr, before.Results, before.NumResults, before.AppErr)
			}
			h2, _ := p2.Lookup("Counter")
			if got := h2.Object().(*Counter).N; got != 1<<20+3 {
				t.Errorf("counter %d after the duplicate, want %d (re-executed?)", got, 1<<20+3)
			}
		})
	}
}
