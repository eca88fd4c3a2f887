package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
)

// This file holds crash rows for disciplines the equivalence table
// (recovery_equiv_test.go) does not reach, each recovered eagerly and
// lazily: Section 3.5's multi-call optimization, where a server may
// durably run a call whose cause is not yet durable at its caller, and
// Algorithm 5, where a persistent caller's replay must take a read-only
// component's answer from its log — both across processes, reading
// outgoing-reply records on replay, keyed by the reply's own call ID —
// and a subordinate, whose state rides in its parent's state record.

// Tally is a persistent server that counts its executions: its state
// tells how many calls ran and which (each caller below adds a distinct
// amount), so a call run twice shows.
type Tally struct {
	N, Runs int
}

func (c *Tally) Add(d int) (int, error) { c.N += d; c.Runs++; return c.N, nil }

// Fanout is a persistent caller of three servers: Spread calls each
// once in one execution, Twice calls the first one twice.
type Fanout struct {
	S1, S2, S3 *Ref
	Execs, Sum int
}

func (f *Fanout) add(r *Ref, d int) error {
	res, err := r.Call("Add", d)
	if err == nil {
		f.Sum += res[0].(int)
	}
	return err
}

func (f *Fanout) Spread(d int) (int, error) {
	f.Execs++
	for _, r := range []*Ref{f.S1, f.S2, f.S3} {
		if err := f.add(r, d); err != nil {
			return 0, err
		}
	}
	return f.Sum, nil
}

func (f *Fanout) Twice(d int) (int, error) {
	f.Execs++
	if err := f.add(f.S1, d); err != nil {
		return 0, err
	}
	return f.Sum, f.add(f.S1, 10*d)
}

// crashCell is one process of a cross-process crash row: where it runs
// and how it is brought back.
type crashCell struct {
	m *Machine
	p *Process
}

// TestCrashRowMultiCallFanout: a persistent F under MultiCall calls S1,
// S2 and S3, each in its own process, in one execution (Spread(1)) and
// S1 twice in the next (Twice(10): Add(10), Add(100)), then fans out
// once more (Spread(1000)). One process crashes: F between fan-out
// sends (client.after-force-send fires after an elided force too), F
// once its last reply has arrived, or S2 after it executed and forced
// the call. F's crash fails the external call, and F's restart finishes
// the execution by replay; S2's crash F rides out by retrying into S2's
// restart. Either way every server must have run each call ID exactly
// once, and F must hold the model's state. The second S1 call of
// Twice must force F's log: without that force F could lose the first
// call's reply while S1's last-call table holds only the second.
func TestCrashRowMultiCallFanout(t *testing.T) {
	for _, crash := range []struct {
		name  string
		proc  string
		point InjectionPoint
		nth   int
	}{
		{"fan-between-sends", "f", PointClientAfterForceSend, 2},
		{"fan-after-last-reply", "f", PointClientAfterReply, 5},
		{"server-after-execute", "s2", PointServerBeforeSendReply, 1},
	} {
		for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
			t.Run(fmt.Sprintf("%s/%v", crash.name, mode), func(t *testing.T) {
				u := newTestUniverse(t)
				defer u.Shutdown()
				cfg := testConfig()
				cfg.MultiCall = true
				cfg.RetryLimit = 1000
				inj := NewInjector().CrashAt(crash.point, crash.nth)
				cells := map[string]*crashCell{}
				start := func(name string, comp any) *Handle {
					c := cfg
					if name == crash.proc {
						c.Injector = inj
					}
					m, p := startProc(t, u, "m-"+name, name, c)
					cells[name] = &crashCell{m, p}
					h, err := p.Create("X", comp)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				var servers [3]*Ref
				for i := range servers {
					servers[i] = NewRef(start(fmt.Sprintf("s%d", i+1), &Tally{}).URI())
				}
				f := u.ExternalRef(start("f", &Fanout{S1: servers[0], S2: servers[1], S3: servers[2]}).URI()).WithoutRetry()
				restart := func(name string) {
					c := cfg
					c.Recovery = Recovery{Mode: mode}
					p, err := cells[name].m.StartProcess(name, c)
					if err == nil {
						err = p.DrainRecovery()
					}
					if err != nil {
						t.Fatalf("restart %s: %v", name, err)
					}
					cells[name].p = p
				}

				for _, step := range []struct {
					method string
					arg    int
				}{{"Spread", 1}, {"Twice", 10}, {"Spread", 1000}} {
					done := make(chan error, 1)
					go func() { _, err := f.Call(step.method, step.arg); done <- err }()
					var err error
					for waiting := true; waiting; {
						select {
						case err = <-done:
							waiting = false
						case <-time.After(time.Millisecond):
							if crash.proc != "f" && cells[crash.proc].p.Crashed() {
								restart(crash.proc)
							}
						}
					}
					if err != nil {
						if crash.proc != "f" || !cells["f"].p.Crashed() {
							t.Fatalf("F.%s(%d): %v", step.method, step.arg, err)
						}
						restart("f")
					}
				}
				if n := inj.Fired(crash.point); n != 1 {
					t.Fatalf("%s fired %d times in %s, want once", crash.point, n, crash.proc)
				}

				state := func(name string) any {
					h, ok := cells[name].p.Lookup("X")
					if !ok {
						t.Fatalf("%s lost its component", name)
					}
					return h.Object()
				}
				if got := state("f").(*Fanout); got.Execs != 3 || got.Sum != 3238 {
					t.Errorf("F: %d executions summing %d, want 3 and 3238", got.Execs, got.Sum)
				}
				for name, want := range map[string]Tally{"s1": {1111, 4}, "s2": {1001, 2}, "s3": {1001, 2}} {
					if got := *state(name).(*Tally); got != want {
						t.Errorf("%s: N %d after %d runs, want %d after %d: a call ran other than once",
							name, got.N, got.Runs, want.N, want.Runs)
					}
				}
			})
		}
	}
}

// Looker is a persistent caller of a read-only component: Look keeps
// what the component read, Touch only counts.
type Looker struct {
	RO      *Ref
	Seen    int
	Touches int
}

func (l *Looker) Look() (int, error) {
	res, err := l.RO.Call("Probe")
	if err != nil {
		return 0, err
	}
	l.Seen = res[0].(int)
	return l.Seen, nil
}

func (l *Looker) Touch() (int, error) { l.Touches++; return l.Touches, nil }

// TestCrashRowReadOnlyReplyFromLog (Algorithm 5): P calls a read-only R
// that reads a persistent S (5), which then changes through another
// caller (15); P crashes after its next force — its next call's
// incoming record. R's answer cannot be had again, so P's replay must
// take it from the outgoing-reply record P logged and must not run R:
// P sees 5 after the restart, and R ran once.
func TestCrashRowReadOnlyReplyFromLog(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), func(t *testing.T) {
			u := newTestUniverse(t)
			defer u.Shutdown()
			cfg := testConfig()
			_, ps := startProc(t, u, "m-s", "s", cfg)
			hs, err := ps.Create("S", &Counter{N: 5})
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Metrics = obs.NewRegistry()
			_, pr := startProc(t, u, "m-r", "r", rcfg)
			hr, err := pr.Create("R", &Prober{Server: NewRef(hs.URI())}, WithType(msg.ReadOnly))
			if err != nil {
				t.Fatal(err)
			}
			pcfg := cfg
			pcfg.Injector = NewInjector().CrashAt(PointServerAfterLogIncoming, 2)
			mp, pp := startProc(t, u, "m-p", "p", pcfg)
			hp, err := pp.Create("P", &Looker{RO: NewRef(hr.URI())})
			if err != nil {
				t.Fatal(err)
			}
			p := u.ExternalRef(hp.URI()).WithoutRetry()

			if got := callInt(t, p, "Look"); got != 5 {
				t.Fatalf("P.Look = %d, want 5", got)
			}
			if got := callInt(t, u.ExternalRef(hs.URI()), "Add", 10); got != 15 {
				t.Fatalf("S.Add(10) = %d, want 15", got)
			}
			if _, err := p.Call("Touch"); err == nil || !pp.Crashed() {
				t.Fatalf("P.Touch = %v with P crashed %v; want the crash after its incoming force", err, pp.Crashed())
			}

			cfg.Recovery = Recovery{Mode: mode}
			pp, err = mp.StartProcess("p", cfg)
			if err == nil {
				err = pp.DrainRecovery()
			}
			if err != nil {
				t.Fatalf("restart P: %v", err)
			}
			h, ok := pp.Lookup("P")
			if !ok {
				t.Fatal("P lost its component")
			}
			if got := h.Object().(*Looker); got.Seen != 5 || got.Touches != 1 {
				t.Errorf("P after replay: saw %d, touched %d times; want 5 (R's logged answer) and 1", got.Seen, got.Touches)
			}
			if n := rcfg.Metrics.Snapshot().Counter(obs.ServeExecs); n != 1 {
				t.Errorf("R ran %d times, want once: the replay called it again", n)
			}
		})
	}
}

// Teller is a persistent caller of a Parent: Pay deposits through it,
// so each deposit carries a call ID the Parent's process can answer a
// retry of from its last-call table.
type Teller struct {
	Bank *Ref
}

func (c *Teller) Pay(n int) (int, error) {
	res, err := c.Bank.Call("Deposit", n)
	if err != nil {
		return 0, err
	}
	return res[0].(int), nil
}

// TestCrashRowSubordinateAfterStateRecord: a parent with a subordinate
// saves a state record every second call, so Deposit(1) and Deposit(2)
// end in one; its process crashes in Deposit(4) after executing it. The
// parent's process logs by Algorithm 1, so the force of Deposit(4)'s
// incoming record makes the state record before it stable. The restart
// restores both components from the state record and replays
// Deposit(4), and the persistent caller's retry of that call ID is
// answered from the last-call table, not run again. The subordinate's
// state must come back with the parent's: each deposit's answer is the
// running sum of distinct powers of two, so a lost subordinate state or
// a call run twice shows.
func TestCrashRowSubordinateAfterStateRecord(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), func(t *testing.T) {
			u := newTestUniverse(t)
			defer u.Shutdown()
			cfg := testConfig()
			cfg.SaveStateEvery = 2
			cfg.RetryInterval = time.Millisecond
			cfg.RetryLimit = 5000
			_, pc := startProc(t, u, "m-cli", "cli", cfg)
			cfg.LogMode = LogBaseline
			crashCfg := cfg
			crashCfg.Injector = NewInjector().CrashAt(PointServerAfterExecute, 3)
			m, p := startProc(t, u, "m-srv", "srv", crashCfg)
			defer pc.Close()
			h, err := p.Create("Parent", &Parent{}, WithSubordinate("vault", &Vault{}))
			if err != nil {
				t.Fatal(err)
			}
			hc, err := pc.Create("Teller", &Teller{Bank: NewRef(h.URI())})
			if err != nil {
				t.Fatal(err)
			}
			teller := u.ExternalRef(hc.URI())
			for i, want := range []int{1, 3} {
				if got := callInt(t, teller, "Pay", 1<<i); got != want {
					t.Fatalf("Pay(%d) = %d, want %d", 1<<i, got, want)
				}
			}

			var across []any
			done := make(chan error, 1)
			go func() {
				var err error
				across, err = teller.Call("Pay", 4)
				done <- err
			}()
			for !p.Crashed() {
				time.Sleep(time.Millisecond)
			}
			cfg.Recovery = Recovery{Mode: mode}
			if p, err = m.StartProcess("srv", cfg); err == nil {
				err = p.DrainRecovery()
			}
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer p.Close()
			if err := <-done; err != nil || across[0] != any(7) {
				t.Fatalf("Pay(4) across the crash = %v, %v; want 7", across, err)
			}
			if rs, _ := p.LastRecovery(); rs.CallsReplayed != 1 {
				t.Errorf("the restart replayed %d calls, want 1: it did not start from the state record", rs.CallsReplayed)
			}
			if got := callInt(t, teller, "Pay", 8); got != 15 {
				t.Errorf("Pay(8) = %d, want 15", got)
			}
			h, ok := p.Lookup("Parent")
			if !ok {
				t.Fatal("the parent did not come back")
			}
			sub, ok := h.Ctx().Subordinate("vault")
			if !ok {
				t.Fatal("the subordinate did not come back")
			}
			if got, v := h.Object().(*Parent).Total, sub.Object().(*Vault).Stored; got != 15 || v != 15 {
				t.Errorf("parent total %d, vault %d; want 15 and 15", got, v)
			}
		})
	}
}
