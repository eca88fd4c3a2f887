package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
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
// a subordinate, whose state rides in its parent's state record, a
// checkpoint whose publication fails under a live call, one whose
// publication fails after it saved the state of idle contexts, and one
// that a state save outruns during its force.

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
// once its last reply has arrived, F in the force of Spread(1)'s
// reply-sent record, which wrote the three replies its elided forces
// left unforced (the device fails that sync), or S2 after it executed
// and forced the call. F's crash fails the external call, and F's
// restart finishes the execution by replay; S2's crash F rides out by
// retrying into S2's restart. Either way every server must have run each call ID exactly
// once, and F must hold the model's state. The second S1 call of
// Twice must force F's log: without that force F could lose the first
// call's reply while S1's last-call table holds only the second.
func TestCrashRowMultiCallFanout(t *testing.T) {
	for _, crash := range []struct {
		name  string
		proc  string
		point InjectionPoint // "": the proc's nth device sync fails
		nth   int
	}{
		{"fan-between-sends", "f", PointClientAfterForceSend, 2},
		{"fan-after-last-reply", "f", PointClientAfterReply, 5},
		{"fan-in-reply-force", "f", "", 2},
		{"server-after-execute", "s2", PointServerBeforeSendReply, 1},
	} {
		for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
			t.Run(fmt.Sprintf("%s/%v", crash.name, mode), forVariants(func(t *testing.T, dev *crashDev) {
				u := newTestUniverseOn(t, dev)
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
				if crash.point == "" {
					dev.failSync(crash.proc, crash.nth)
				}
				unsynced := dev.unsynced.Load()
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
				if n := inj.Fired(crash.point); n != 1 && crash.point != "" {
					t.Fatalf("%s fired %d times in %s, want once", crash.point, n, crash.proc)
				}
				if crash.point == "" && dev.unsynced.Load() == unsynced {
					t.Fatalf("the crash found no record past %s's last sync", crash.proc)
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
			}))
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
// P sees 5 after the restart, and R ran once. In the in-force row P
// crashes in Look's own reply force, R's answer logged and not forced:
// a process death keeps it and R ran once; a power cut loses it, and
// the replay asks R again — Algorithm 5 allows that, as P answered no
// one with it — and sees 5 still.
func TestCrashRowReadOnlyReplyFromLog(t *testing.T) {
	for _, inForce := range []bool{false, true} {
		for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
			name := mode.String()
			if inForce {
				name = "in-reply-force/" + name
			}
			t.Run(name, forVariants(func(t *testing.T, dev *crashDev) { readOnlyReplyFromLog(t, dev, mode, inForce) }))
		}
	}
}

func readOnlyReplyFromLog(t *testing.T, dev *crashDev, mode RecoveryMode, inForce bool) {
	u := newTestUniverseOn(t, dev)
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
	touches, rRuns := 1, int64(1)
	if inForce {
		pcfg.Injector = nil
		touches, rRuns = 0, map[bool]int64{false: 1, true: 2}[dev.powerCut]
	}
	mp, pp := startProc(t, u, "m-p", "p", pcfg)
	hp, err := pp.Create("P", &Looker{RO: NewRef(hr.URI())})
	if err != nil {
		t.Fatal(err)
	}
	p := u.ExternalRef(hp.URI()).WithoutRetry()

	if inForce {
		dev.failSync("p", 2) // the incoming force, then the reply-sent one
		before := dev.unsynced.Load()
		if _, err := p.Call("Look"); err == nil || !pp.Crashed() {
			t.Fatalf("P.Look = %v with P crashed %v; want the crash in its reply force", err, pp.Crashed())
		}
		if dev.unsynced.Load() == before {
			t.Fatal("the crash found no record past P's last sync")
		}
	} else {
		if got := callInt(t, p, "Look"); got != 5 {
			t.Fatalf("P.Look = %d, want 5", got)
		}
		if got := callInt(t, u.ExternalRef(hs.URI()), "Add", 10); got != 15 {
			t.Fatalf("S.Add(10) = %d, want 15", got)
		}
		if _, err := p.Call("Touch"); err == nil || !pp.Crashed() {
			t.Fatalf("P.Touch = %v with P crashed %v; want the crash after its incoming force", err, pp.Crashed())
		}
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
	if got := h.Object().(*Looker); got.Seen != 5 || got.Touches != touches {
		t.Errorf("P after replay: saw %d, touched %d times; want 5 (R's logged answer) and %d", got.Seen, got.Touches, touches)
	}
	if n := rcfg.Metrics.Snapshot().Counter(obs.ServeExecs); n != rRuns {
		t.Errorf("R ran %d times, want %d", n, rRuns)
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
		t.Run(mode.String(), forVariants(func(t *testing.T, dev *crashDev) {
			u := newTestUniverseOn(t, dev)
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
		}))
	}
}

// TestCrashRowFailedForce: a persistent caller's call reaches S, whose
// force at reply — the Algorithm-2 force of S's unforced incoming
// record — fails at the device. The call ran and its record is in the
// file: a restart after a process death adopts it, one after a power cut
// does not. So the force may not answer the call as failed, which the
// caller would not retry, while a process death ran it anyway. The
// failed force crashes S; the caller retries into S's restart and is
// answered once, from the adopted call or from a run of its own.
func TestCrashRowFailedForce(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), forVariants(func(t *testing.T, dev *crashDev) {
			u := newTestUniverseOn(t, dev)
			defer u.Shutdown()
			cfg := testConfig()
			cfg.RetryInterval = time.Millisecond
			cfg.RetryLimit = 5000
			_, pc := startProc(t, u, "m-cli", "cli", cfg)
			m, ps := startProc(t, u, "m-srv", "srv", cfg)
			hs, err := ps.Create("S", &Tally{})
			if err != nil {
				t.Fatal(err)
			}
			hr, err := pc.Create("R", &Relay{Server: NewRef(hs.URI())})
			if err != nil {
				t.Fatal(err)
			}
			relay := u.ExternalRef(hr.URI())
			callInt(t, relay, "Forward", 1)

			dev.failSync("srv", 1)
			unsynced := dev.unsynced.Load()
			type result struct {
				res []any
				err error
			}
			done := make(chan result, 1)
			go func() {
				res, err := relay.Call("Forward", 10)
				done <- result{res, err}
			}()
			for deadline := time.Now().Add(5 * time.Second); !ps.Crashed(); {
				select {
				case r := <-done:
					t.Fatalf("Forward(10) across the failed force = %v, %v, with S alive: the failed force answered the call", r.res, r.err)
				case <-time.After(time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("S never crashed")
				}
			}
			// The crash is done once it closed the log, where the device
			// finds the records past the last sync.
			for deadline := time.Now().Add(5 * time.Second); dev.unsynced.Load() == unsynced; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the crash found no record past S's last sync")
				}
			}
			cfg.Recovery = Recovery{Mode: mode}
			if ps, err = m.StartProcess("srv", cfg); err == nil {
				err = ps.DrainRecovery()
			}
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if r := <-done; r.err != nil || r.res[0] != any(11) {
				t.Fatalf("Forward(10) across the failed force = %v, %v; want 11", r.res, r.err)
			}
			h, ok := ps.Lookup("S")
			if !ok {
				t.Fatal("S did not come back")
			}
			if got := *h.Object().(*Tally); got != (Tally{N: 11, Runs: 2}) {
				t.Errorf("S: N %d after %d runs, want 11 after 2: a call ran other than once", got.N, got.Runs)
			}
		}))
	}
}

// TestCrashRowFailedPublication: a checkpoint's publication fails under
// a live call — the root cannot be written — and the call that took the
// checkpoint must still be answered: it executed and its records are
// durable, so a restart replays it, and a caller told it failed would
// see it run anyway. Live answers must equal the recovered state. Each
// failure is counted, an explicit checkpoint under the blocked root
// returns no error, and the next checkpoint, once the root can be
// written, publishes.
func TestCrashRowFailedPublication(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), forVariants(func(t *testing.T, dev *crashDev) {
			u := newTestUniverseOn(t, dev)
			defer u.Shutdown()
			cfg := testConfig()
			cfg.Metrics = obs.NewRegistry()
			cfg.CheckpointEvery = 3
			m, p := startProc(t, u, "evo1", "srv", cfg)
			h, err := p.Create("C", &Counter{})
			if err != nil {
				t.Fatal(err)
			}
			ref := u.ExternalRef(h.URI())
			live := 0
			add := func() {
				t.Helper()
				res, err := ref.Call("Add", 1)
				if err != nil {
					t.Errorf("Add(1) after %d: %v", live, err)
					return
				}
				live = res[0].(int)
			}
			publishErrors := func() int64 { return cfg.Metrics.Snapshot().Counter(obs.PublishErrors) }
			add()
			add()
			unblock := blockRoot(t, p)
			add() // takes the checkpoint, whose root write fails
			if got := publishErrors(); got != 1 || live != 3 {
				t.Errorf("after the checkpointing call: ckpt.publish_errors = %d, answer %d; want 1 and 3", got, live)
			}
			if err := p.Checkpoint(); err != nil {
				t.Errorf("a checkpoint under a blocked root: %v", err)
			}
			if got := publishErrors(); got != 2 {
				t.Errorf("ckpt.publish_errors = %d after the explicit checkpoint, want 2", got)
			}
			if !p.log.Mark().IsNil() {
				t.Errorf("a failed publication left mark %v", p.log.Mark())
			}
			unblock()
			for i := 0; i < 4; i++ {
				add() // the third takes the checkpoint that publishes
			}
			if p.log.Mark().IsNil() {
				t.Error("the checkpoint after the failed ones was not published")
			}
			p.Crash()

			cfg.Recovery = Recovery{Mode: mode}
			if p, err = m.StartProcess("srv", cfg); err == nil {
				err = p.DrainRecovery()
			}
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer p.Close()
			if got := callInt(t, ref, "Get"); got != live || live != 7 {
				t.Errorf("recovered C = %d, last live answer %d; want both 7", got, live)
			}
		}))
	}
}

// TestCrashRowReanchorBeforePublication: R calls Q once and both go
// idle while C keeps serving. The second checkpoint saves the state of
// R and Q (Q's with its reply to R, which no state save had logged), the
// checkpoint's force makes the records durable, and its root write
// fails; the process crashes. A restart from the root left on disk,
// which names the first checkpoint, and one from the root the failed
// write would have left recover the same state and the same last-call
// table, eager and lazy: neither replays a call of R or Q.
func TestCrashRowReanchorBeforePublication(t *testing.T) {
	forModes(t, crashRowReanchorBeforePublication)
}

func crashRowReanchorBeforePublication(t *testing.T, dev *crashDev) func(*testing.T, RecoveryMode) {
	img := equivImage{dir: t.TempDir(), cfg: testConfig(), counters: []string{"C", "Q"}, relays: []string{"R"}}
	u, err := NewUniverse(UniverseConfig{Dir: img.dir, dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Shutdown()
	_, p := startProc(t, u, "evo1", "srv", img.cfg)
	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hq, err := p.Create("Q", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("R", &Relay{Server: NewRef(hq.URI())})
	if err != nil {
		t.Fatal(err)
	}
	c := u.ExternalRef(hc.URI())
	callInt(t, u.ExternalRef(hr.URI()), "Forward", 5)
	callInt(t, c, "Add", 1)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldMark := p.log.Mark()
	root := filepath.Join(p.LogDir(), "root")
	oldRoot, err := os.ReadFile(root)
	if err != nil {
		t.Fatal(err)
	}
	callInt(t, c, "Add", 2)

	unblock := blockRoot(t, p)
	begin := p.log.End()
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("a checkpoint under a blocked root: %v", err)
	}
	if mark := p.log.Mark(); mark != oldMark {
		t.Fatalf("the blocked publication moved the mark from %v to %v", oldMark, mark)
	}
	for _, h := range []*Handle{hq, hr} {
		if r := h.RestartLSN(); r <= begin {
			t.Errorf("%s restarts at %v, below the checkpoint at %v: not re-anchored", h.URI(), r, begin)
		}
	}
	if r := hc.RestartLSN(); r > oldMark {
		t.Errorf("busy C restarts at %v, past the mark %v", r, oldMark)
	}
	// The root the failed write would have left.
	unblock()
	if err := p.log.Publish(begin); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	onOld := withRoot(t, img, oldRoot, nil)

	return func(t *testing.T, mode RecoveryMode) {
		old, cur := recoverImage(t, onOld, mode), recoverImage(t, img, mode)
		if old.mark != oldMark || cur.mark != begin {
			t.Fatalf("restarts scanned from %v and %v, want %v and %v", old.mark, cur.mark, oldMark, begin)
		}
		for _, got := range []recoveryOutcome{old, cur} {
			if got.counters["C"] != 3 || got.counters["Q"] != 5 || got.relayCalls["R"] != 1 {
				t.Errorf("recovered C %d, Q %d, R.Calls %d; want 3, 5, 1", got.counters["C"], got.counters["Q"], got.relayCalls["R"])
			}
			if got.stats.CallsReplayed != 2 {
				t.Errorf("replayed %d calls, want C's 2 alone", got.stats.CallsReplayed)
			}
			if len(got.lastCalls) != 1 || got.lastCalls[0].ReplyLSN <= begin {
				t.Errorf("last-call table %+v, want Q's entry for R with its reply past %v", got.lastCalls, begin)
			}
		}
		assertEquivalent(t, old, cur, false)
		if !reflect.DeepEqual(old.lastCalls, cur.lastCalls) {
			t.Errorf("last-call table = %+v from the old root, %+v from the new", old.lastCalls, cur.lastCalls)
		}
	}
}

// holdSync is a disk model whose next Sync, once armed, blocks until
// the test releases it: it holds one force in flight.
type holdSync struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (h *holdSync) Write(int) {}
func (h *holdSync) Sync() {
	if h.armed.CompareAndSwap(true, false) {
		h.entered <- struct{}{}
		<-h.release
	}
}
func (h *holdSync) Name() string { return "hold" }

// TestCrashRowStateSaveDuringCheckpointForce: a quiet caller's call to
// Q left its reply below the mark, and Q stays busy past the mark, so
// a checkpoint's tables name Q's old restart record and the old reply.
// While that checkpoint's force is held, Q saves its state: the reply
// is written again and Q's restart record moves on. The checkpoint
// then publishes and trims, and the process crashes — with that save
// unforced, so a restart reads the old records, or forced, so it finds
// the new ones too. Either way the restart recovers Q, eager and lazy,
// and answers the quiet caller's retry byte for byte from a reply
// record the trim kept.
func TestCrashRowStateSaveDuringCheckpointForce(t *testing.T) {
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprintf("forced=%v", forced), func(t *testing.T) {
			forModes(t, func(t *testing.T, dev *crashDev) func(*testing.T, RecoveryMode) {
				dir := t.TempDir()
				hold := &holdSync{entered: make(chan struct{}, 1), release: make(chan struct{})}
				u, err := NewUniverse(UniverseConfig{Dir: dir, DiskModel: func(string, string) disk.Model { return hold }, dev: dev})
				if err != nil {
					t.Fatal(err)
				}
				defer u.Shutdown()
				cfg := testConfig()
				_, p := startProc(t, u, "evo1", "srv", cfg)
				p.SetLogSegmentBytes(512)
				hq, err := p.Create("Q", &Counter{})
				if err != nil {
					t.Fatal(err)
				}
				first := bytes.Clone(p.serveCall(quietCall(t, hq), &msg.Reply{}))
				if err := hq.SaveState(); err != nil { // the reply's first copy
					t.Fatal(err)
				}
				if err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				q := u.ExternalRef(hq.URI())
				for i := 0; i < 20; i++ { // past the mark, over a few segments
					callInt(t, q, "Add", 1)
				}

				hold.armed.Store(true)
				begin := p.log.End()
				ckpt := make(chan error, 1)
				go func() { ckpt <- p.Checkpoint() }()
				select {
				case <-hold.entered:
				case <-time.After(5 * time.Second):
					t.Fatal("the checkpoint never forced")
				}
				if err := hq.SaveState(); err != nil {
					t.Fatal(err)
				}
				close(hold.release)
				if err := <-ckpt; err != nil {
					t.Fatal(err)
				}
				if r, lsn := hq.RestartLSN(), p.lastCalls.get(quietCall(t, hq).ID.Caller).replyLSN; r <= begin || lsn <= begin {
					t.Fatalf("Q restarts at %v and keeps its reply at %v: the save did not run during the checkpoint at %v", r, lsn, begin)
				}
				if p.log.Mark() != begin {
					t.Fatalf("mark %v, want the held checkpoint's %v", p.log.Mark(), begin)
				}
				if forced {
					if _, err := p.log.SyncAll(); err != nil {
						t.Fatal(err)
					}
				}
				p.Crash()

				return func(t *testing.T, mode RecoveryMode) {
					dst := t.TempDir()
					copyDir(t, dir, dst)
					u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dst})
					if err != nil {
						t.Fatal(err)
					}
					defer u.Shutdown()
					rcfg := cfg
					rcfg.Recovery = Recovery{Mode: mode}
					_, p := startProc(t, u, "evo1", "srv", rcfg)
					if err := p.DrainRecovery(); err != nil {
						t.Fatal(err)
					}
					h, ok := p.Lookup("Q")
					if !ok {
						t.Fatal("Q missing after recovery")
					}
					if n := h.Object().(*Counter).N; n != 25 {
						t.Errorf("Q recovered as %d, want 25", n)
					}
					var r msg.Reply
					if again := p.serveCall(quietCall(t, h), &r); !bytes.Equal(again, first) {
						t.Errorf("the retried call was answered with %x (%+v), first with %x", again, r, first)
					}
				}
			})
		})
	}
}

// TestCrashRowCreateDuringCheckpoint: a checkpoint runs while Create's
// force is held, so its begin record follows the creation record. The
// checkpoint publishes, the process crashes, and a restart from its
// root — whose scan passes no creation record — finds the context
// through the checkpoint's context table, eager and lazy.
func TestCrashRowCreateDuringCheckpoint(t *testing.T) { forModes(t, crashRowCreateDuringCheckpoint) }

func crashRowCreateDuringCheckpoint(t *testing.T, dev *crashDev) func(*testing.T, RecoveryMode) {
	dir := t.TempDir()
	hold := &holdSync{entered: make(chan struct{}, 1), release: make(chan struct{})}
	u, err := NewUniverse(UniverseConfig{Dir: dir, DiskModel: func(string, string) disk.Model { return hold }, dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Shutdown()
	cfg := testConfig()
	_, p := startProc(t, u, "evo1", "srv", cfg)

	hold.armed.Store(true)
	created := make(chan error, 1)
	go func() {
		_, err := p.Create("New", &Counter{N: 7})
		created <- err
	}()
	select {
	case <-hold.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Create never forced")
	}
	begin := p.log.End()
	ckpts := p.obs.Checkpoints.Load()
	ckpt := make(chan error, 1)
	go func() { ckpt <- p.Checkpoint() }()
	for deadline := time.Now().Add(5 * time.Second); p.obs.Checkpoints.Load() == ckpts; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint never logged its end record")
		}
	}
	close(hold.release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if p.log.Mark() != begin {
		t.Fatalf("mark %v, want the checkpoint that began at %v, behind the creation record", p.log.Mark(), begin)
	}
	p.Crash()

	return func(t *testing.T, mode RecoveryMode) {
		dst := t.TempDir()
		copyDir(t, dir, dst)
		u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dst})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Shutdown()
		rcfg := cfg
		rcfg.Recovery = Recovery{Mode: mode}
		_, p := startProc(t, u, "evo1", "srv", rcfg)
		if err := p.DrainRecovery(); err != nil {
			t.Fatal(err)
		}
		h, ok := p.Lookup("New")
		if !ok {
			t.Fatal("the context created during the checkpoint is missing after recovery")
		}
		if got := callInt(t, u.ExternalRef(h.URI()), "Get"); got != 7 {
			t.Errorf("New recovered as %d, want 7", got)
		}
	}
}

// TestFailedCreateRegistersNothing: a Create whose creation record the
// log refuses leaves no context behind, so Lookup misses the name.
func TestFailedCreateRegistersNothing(t *testing.T) {
	u := newTestUniverse(t)
	defer u.Shutdown()
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	p.log.Discard()
	if _, err := p.Create("New", &Counter{}); err == nil {
		t.Fatal("Create on a closed log succeeded")
	}
	if _, ok := p.Lookup("New"); ok {
		t.Error("Lookup finds the context whose creation record was never logged")
	}
}
