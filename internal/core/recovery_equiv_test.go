package core

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file pins the recovery contract in one table: whatever the
// mode (eager, lazy), recovering the same crashed log must produce
// identical component state, identical last-call tables and identical
// replay and suppression counts — across a clean crash, crashes
// injected inside a served call (where a tail replay runs off the end
// of the log and resumes live), and a same-process caller whose resumed
// tail re-sends into a callee that already ran the call
// (relay-mid-call). Each cell
// recovers its own copy of the crashed universe directory; lazy
// cells take calls mid-drain. Run under -race: on-demand replays race
// the background worker here by design.

// copyDir clones a universe directory so each recovery attempt starts
// from the same crashed on-disk state.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// counterRelayWorkload drives the standard counters+relays workload
// against a fresh process on dev, crashes it, and returns the universe
// dir plus component names. With inForce > 0 the process dies in the
// last round's first relay call, in that call's inForce-th device sync,
// the rest of the round unrun.
func counterRelayWorkload(t *testing.T, dev *crashDev, inForce int) (dir string, counters, relays []string) {
	t.Helper()
	dir = t.TempDir()
	u, err := NewUniverse(UniverseConfig{Dir: dir, dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("srv", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[string]*Ref)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("C%d", i)
		h, err := p.Create(name, &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		counters = append(counters, name)
		refs[name] = u.ExternalRef(h.URI())
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("R%d", i)
		target, _ := p.Lookup(fmt.Sprintf("C%d", i))
		h, err := p.Create(name, &Relay{Server: NewRef(target.URI())})
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, name)
		refs[name] = u.ExternalRef(h.URI())
	}
	for round := 1; round <= 8; round++ {
		for i, name := range counters {
			callInt(t, refs[name], "Add", i+round)
		}
		if round == 8 && inForce > 0 {
			dev.failSync("srv", inForce)
			if _, err := refs[relays[0]].WithoutRetry().Call("Forward", 10); err == nil || !p.Crashed() {
				t.Fatalf("the relay call whose force failed = %v, with the process crashed %v", err, p.Crashed())
			}
			break
		}
		for _, name := range relays {
			callInt(t, refs[name], "Forward", 10)
		}
	}
	p.Crash()
	u.Shutdown()
	return dir, counters, relays
}

// assertLogOnDisk checks the layout every process log has: segment
// files in the log directory itself and nothing else in it but the
// root.
func assertLogOnDisk(t *testing.T, logDir string) {
	t.Helper()
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "root" && (e.IsDir() || !strings.HasSuffix(e.Name(), ".seg")) {
			t.Fatalf("%s holds %s, want segment files and the root only", logDir, e.Name())
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(logDir, "*.seg")); len(segs) == 0 {
		t.Fatalf("%s holds no segment file", logDir)
	}
}

// equivImage is a crashed universe on disk, how to restart its "srv"
// process, and what to read back afterwards.
type equivImage struct {
	dir              string
	counters, relays []string
	// touch names the contexts a lazy restart calls (Add 0) while the
	// drain is running: first-touch replays racing the worker. Add(0)
	// leaves counter state unchanged and external calls leave no
	// last-call entries, so the comparison still holds bit for bit.
	touch []string
	// cfg is the restart configuration; the matrix sets cfg.Recovery.
	cfg Config
}

// recoveryOutcome is everything the equivalence table compares.
type recoveryOutcome struct {
	counters   map[string]int
	relayCalls map[string]int
	lastCalls  []lastCallSaved
	suppressed int64
	stats      RecoveryStats
	// mark and stable are what the restart's open found in the root.
	mark, stable ids.LSN
}

func sortLastCalls(s []lastCallSaved) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Caller != s[j].Caller {
			return fmt.Sprint(s[i].Caller) < fmt.Sprint(s[j].Caller)
		}
		return s[i].Seq < s[j].Seq
	})
}

// recoverImage clones the image and recovers it under the given mode:
// restart, touch (lazy), drain, collect. The restart
// runs under a watchdog, so a replay that waits on a latch nobody will
// open fails its cell in seconds instead of hanging the run.
func recoverImage(t *testing.T, img equivImage, mode RecoveryMode) recoveryOutcome {
	t.Helper()
	dst := t.TempDir()
	copyDir(t, img.dir, dst)
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Shutdown()
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := img.cfg
	cfg.Recovery = Recovery{Mode: mode}

	type started struct {
		p   *Process
		err error
	}
	ch := make(chan started, 1)
	go func() {
		p, err := m.StartProcess("srv", cfg)
		for i := 0; err == nil && mode == RecoveryLazy && i < len(img.touch); i++ {
			h, ok := p.Lookup(img.touch[i])
			if !ok {
				err = fmt.Errorf("%s missing after Pass 1", img.touch[i])
				break
			}
			_, err = u.ExternalRef(h.URI()).Call("Add", 0)
		}
		if err == nil {
			err = p.DrainRecovery()
		}
		ch <- started{p, err}
	}()
	var p *Process
	select {
	case s := <-ch:
		if s.err != nil {
			t.Fatalf("restart: %v", s.err)
		}
		p = s.p
	case <-time.After(5 * time.Second):
		t.Fatal("recovery hung: restart and drain did not finish in 5 s")
	}
	if !p.Recovered() {
		t.Fatal("restarted process did not recover")
	}

	out := recoveryOutcome{
		counters:   make(map[string]int),
		relayCalls: make(map[string]int),
		suppressed: p.suppressedCalls.Load(),
		mark:       p.log.Mark(),
		stable:     p.log.Stable(),
	}
	for _, name := range img.counters {
		h, ok := p.Lookup(name)
		if !ok {
			t.Fatalf("counter %s missing after recovery", name)
		}
		out.counters[name] = h.Object().(*Counter).N
	}
	for _, name := range img.relays {
		h, ok := p.Lookup(name)
		if !ok {
			t.Fatalf("relay %s missing after recovery", name)
		}
		out.relayCalls[name] = h.Object().(*Relay).Calls
	}
	out.lastCalls = p.lastCalls.snapshot()
	sortLastCalls(out.lastCalls)
	stats, ok := p.LastRecovery()
	if !ok {
		t.Fatal("LastRecovery reported no run")
	}
	out.stats = stats
	return out
}

// assertEngineStats checks what every run must report about itself,
// whatever it is compared against.
func assertEngineStats(t *testing.T, got recoveryOutcome, mode RecoveryMode) {
	t.Helper()
	s := got.stats
	if s.Mode != mode {
		t.Errorf("stats.Mode = %v, want %v", s.Mode, mode)
	}
	// Every restored context was replayed exactly once, by a toucher or
	// by the worker; which side won each race varies run to run.
	if sum := s.ContextsOnDemand + s.ContextsBackground; sum != s.ContextsRestored {
		t.Errorf("on-demand %d + background %d != restored %d",
			s.ContextsOnDemand, s.ContextsBackground, s.ContextsRestored)
	}
	if s.ContextsRestored > 0 && s.CtxReplayMaxNanos <= 0 {
		t.Errorf("CtxReplayMaxNanos = %d, want > 0", s.CtxReplayMaxNanos)
	}
	if s.CtxReplayTotalNanos < s.CtxReplayMaxNanos {
		t.Errorf("CtxReplayTotalNanos %d < max %d", s.CtxReplayTotalNanos, s.CtxReplayMaxNanos)
	}
}

// assertEquivalent compares a recovery against a reference run. sameLog
// says both recovered the same bytes: then the last-call tables (whose
// reply LSNs name positions in that log) and the records read must
// match too, not only what was recovered.
func assertEquivalent(t *testing.T, ref, got recoveryOutcome, sameLog bool) {
	t.Helper()
	if !reflect.DeepEqual(got.counters, ref.counters) {
		t.Errorf("counters = %v, reference recovered %v", got.counters, ref.counters)
	}
	if !reflect.DeepEqual(got.relayCalls, ref.relayCalls) {
		t.Errorf("relay calls = %v, reference recovered %v", got.relayCalls, ref.relayCalls)
	}
	if got.suppressed != ref.suppressed {
		t.Errorf("suppressed %d sends, reference suppressed %d", got.suppressed, ref.suppressed)
	}
	if got.stats.CallsSuppressed != ref.stats.CallsSuppressed {
		t.Errorf("stats.CallsSuppressed = %d, reference %d", got.stats.CallsSuppressed, ref.stats.CallsSuppressed)
	}
	if got.stats.CallsReplayed != ref.stats.CallsReplayed {
		t.Errorf("replayed %d calls, reference replayed %d", got.stats.CallsReplayed, ref.stats.CallsReplayed)
	}
	if got.stats.ContextsRestored != ref.stats.ContextsRestored {
		t.Errorf("restored %d contexts, reference restored %d", got.stats.ContextsRestored, ref.stats.ContextsRestored)
	}
	if len(got.lastCalls) != len(ref.lastCalls) {
		t.Errorf("last-call table has %d entries, reference has %d", len(got.lastCalls), len(ref.lastCalls))
	}
	if !sameLog {
		return
	}
	if !reflect.DeepEqual(got.lastCalls, ref.lastCalls) {
		t.Errorf("last-call table = %+v, reference %+v", got.lastCalls, ref.lastCalls)
	}
	if got.stats.RecordsScanned != ref.stats.RecordsScanned {
		t.Errorf("scanned %d records, reference scanned %d", got.stats.RecordsScanned, ref.stats.RecordsScanned)
	}
}

// equivScenario is one way of producing a crashed log.
type equivScenario struct {
	name string
	// build leaves a crashed universe on disk, made on dev. It runs on
	// the scenario's *testing.T, so directories it makes outlive the
	// per-cell subtests.
	build func(t *testing.T, dev *crashDev) equivImage
	// check, when set, asserts what the scenario expects of the
	// baseline run.
	check func(t *testing.T, base recoveryOutcome)
}

// injectedCrashImage drives four counters on dev until the injector
// crashes the process mid-call at point — late enough that earlier calls
// replay normally and the last one exercises the crash point.
func injectedCrashImage(t *testing.T, point InjectionPoint, dev *crashDev) equivImage {
	t.Helper()
	img := equivImage{dir: t.TempDir(), touch: []string{"C3"}, cfg: testConfig()}
	u, err := NewUniverse(UniverseConfig{Dir: img.dir, dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Injector = NewInjector().CrashAt(point, 12)
	_, p := startProc(t, u, "evo1", "srv", cfg)
	refs := make(map[string]*Ref)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("C%d", i)
		h, err := p.Create(name, &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		img.counters = append(img.counters, name)
		refs[name] = u.ExternalRef(h.URI()).WithoutRetry()
	}
	crashed := false
	for round := 1; round <= 5 && !crashed; round++ {
		for i, name := range img.counters {
			if _, err := refs[name].Call("Add", i+round); err != nil {
				crashed = true
				break
			}
		}
	}
	if !crashed {
		t.Fatalf("injector at %s never fired", point)
	}
	u.Shutdown()
	return img
}

func equivScenarios() []equivScenario {
	replayedAndSuppressed := func(t *testing.T, base recoveryOutcome) {
		if base.suppressed == 0 {
			t.Error("workload produced no suppressed sends; relays did not exercise replay suppression")
		}
		if base.stats.CallsReplayed == 0 {
			t.Error("workload produced no replayed calls")
		}
	}
	// Counters plus relays (whose replays suppress outgoing sends
	// answered from the log), crashed after the workload or in a force.
	relays := func(inForce int) func(t *testing.T, dev *crashDev) equivImage {
		return func(t *testing.T, dev *crashDev) equivImage {
			dir, counters, relays := counterRelayWorkload(t, dev, inForce)
			assertLogOnDisk(t, filepath.Join(dir, "evo1", "srv.log"))
			// Late restart LSNs: the worker reaches these last.
			return equivImage{dir: dir, counters: counters, relays: relays,
				touch: []string{"C5", "C4"}, cfg: testConfig()}
		}
	}
	scs := []equivScenario{{
		name:  "clean-crash",
		build: relays(0),
		check: replayedAndSuppressed,
	}, {
		// The process dies in the relay's Algorithm-3 force of its
		// external call's incoming record.
		name:  "in-force/incoming",
		build: relays(1),
		check: replayedAndSuppressed,
	}, {
		// The process dies in the callee's Algorithm-2 force at reply,
		// its incoming record never forced.
		name:  "in-force/reply",
		build: relays(2),
		check: replayedAndSuppressed,
	}}
	for _, point := range []InjectionPoint{
		PointServerAfterLogIncoming,
		PointServerAfterExecute,
		PointServerBeforeSendReply,
	} {
		scs = append(scs, equivScenario{
			name: string(point),
			build: func(t *testing.T, dev *crashDev) equivImage {
				return injectedCrashImage(t, point, dev)
			},
		})
	}
	return append(scs, equivScenario{
		// The crash lands inside C after C logged and forced its reply
		// to R's fourth call: R's tail resumes live and re-sends a call
		// C already executed, which C must answer from its last-call
		// table once its own replay is done — not run a second time.
		name:  "relay-mid-call",
		build: func(t *testing.T, dev *crashDev) equivImage { return relayMidCallImage(t, dev, false) },
		check: relayMidCall,
	}, equivScenario{
		// The same, the process dying in the Algorithm-1 force of C's
		// reply record.
		name:  "in-force/baseline",
		build: func(t *testing.T, dev *crashDev) equivImage { return relayMidCallImage(t, dev, true) },
		check: relayMidCall,
	})
}

// relayMidCall checks the recovery of a relayMidCallImage: C ran each
// Forward's Add once, and R's resumed call was answered from C's table.
func relayMidCall(t *testing.T, base recoveryOutcome) {
	if base.counters["C"] != relayMidCallForwards || base.relayCalls["R"] != relayMidCallForwards {
		t.Errorf("recovered C = %d, R.Calls = %d; want %d and %d",
			base.counters["C"], base.relayCalls["R"], relayMidCallForwards, relayMidCallForwards)
	}
	if len(base.lastCalls) != 1 || base.lastCalls[0].Seq != relayMidCallForwards {
		t.Errorf("last-call table = %+v, want R's call %d only", base.lastCalls, relayMidCallForwards)
	}
	if base.suppressed != relayMidCallForwards-1 {
		t.Errorf("suppressed %d sends, want the %d R's log answers", base.suppressed, relayMidCallForwards-1)
	}
}

// relayMidCallForwards is how many R.Forward(1) calls relayMidCallImage
// makes; the last one crashes inside C.
const relayMidCallForwards = 4

// relayMidCallImage drives an Algorithm-1 R → C chain in one process on
// dev until the injector crashes it inside C's last Add, after C's reply
// record is forced but before the reply is sent. R's forced send is on
// the log with no reply after it. With inForce the process dies instead
// in the force of C's reply record, the fourth of the last Forward.
func relayMidCallImage(t *testing.T, dev *crashDev, inForce bool) equivImage {
	t.Helper()
	cfg := Config{LogMode: LogBaseline, RetryInterval: 2 * time.Millisecond, RetryLimit: 50}
	img := equivImage{dir: t.TempDir(), counters: []string{"C"}, relays: []string{"R"},
		touch: []string{"C"}, cfg: cfg}
	u, err := NewUniverse(UniverseConfig{Dir: img.dir, dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	// The point fires in C, then in R, for every Forward.
	inj := NewInjector().CrashAt(PointServerBeforeSendReply, 2*relayMidCallForwards-1)
	cfg.Injector = inj
	_, p := startProc(t, u, "evo1", "srv", cfg)
	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("R", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	relay := u.ExternalRef(hr.URI()).WithoutRetry()
	for i := 1; i < relayMidCallForwards; i++ {
		callInt(t, relay, "Forward", 1)
	}
	if inForce {
		inj.Disarm(PointServerBeforeSendReply)
		dev.failSync("srv", 4) // R's incoming, R's send, C's incoming, C's reply
		if _, err := relay.Call("Forward", 1); err == nil || !p.Crashed() {
			t.Fatalf("last Forward returned %v with the process crashed %v; want a crash in C's reply force", err, p.Crashed())
		}
	} else if _, err := relay.Call("Forward", 1); err == nil || inj.Fired(PointServerBeforeSendReply) != 1 {
		t.Fatalf("last Forward returned %v with the injector fired %d times; want a crash inside C",
			err, inj.Fired(PointServerBeforeSendReply))
	}
	u.Shutdown()
	return img
}

// TestRecoveryEquivalence is the table. Each scenario's image is built
// under both crash variants, process death and power cut, and each cell
// recovers both: its subtests name the variant. The eager cell of a
// variant's image is the baseline, and the lazy cell is compared with
// it on everything. A cell's name starts "shards=1" and ends in
// "workers=1": a restart reads one log stream with one background
// worker, and the name keeps saying so.
//
// A process-death image whose crash kept bytes past the last sync holds
// records no force made durable, and the restart adopts them: such an
// image must be read to more records than the power-cut image of its
// scenario, and the table counts its cells, and the ones that replayed
// more calls too.
func TestRecoveryEquivalence(t *testing.T) {
	adopted, replayedMore := 0, 0
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			imgs := make([]equivImage, len(variants))
			var unsynced int64 // what the process death's crash kept past the last sync
			for i, v := range variants {
				dev := v.dev()
				imgs[i] = sc.build(t, dev)
				if !v.powerCut {
					unsynced = dev.unsynced.Load()
				}
			}
			base := make([]*recoveryOutcome, len(variants))
			for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
				t.Run(fmt.Sprintf("shards=1/%v/workers=1", mode), func(t *testing.T) {
					for i, v := range variants {
						t.Run(v.name, func(t *testing.T) {
							got := recoverImage(t, imgs[i], mode)
							assertEngineStats(t, got, mode)
							if base[i] == nil {
								if sc.check != nil {
									sc.check(t, got)
								}
								base[i] = &got
								return
							}
							assertEquivalent(t, *base[i], got, true)
						})
					}
				})
			}
			if base[0] == nil || base[1] == nil {
				return
			}
			pd, pc := base[0].stats, base[1].stats
			switch {
			case unsynced > 0 && pd.RecordsScanned > pc.RecordsScanned:
				adopted += 2
				if pd.CallsReplayed > pc.CallsReplayed {
					replayedMore += 2
				}
			case strings.HasPrefix(sc.name, "in-force/"):
				t.Errorf("a process death in a force left %d bytes past the last sync, and its restart scanned %d records, a power cut's %d: nothing was adopted",
					unsynced, pd.RecordsScanned, pc.RecordsScanned)
			}
		})
	}
	if adopted == 0 {
		t.Error("no process-death image held a record past its last sync")
	}
	t.Logf("%d process-death cells restarted a log holding records past its last sync and read them; %d of them replayed more calls than a power cut's", adopted, replayedMore)
}

// TestRecoveryCalleeCompleteTailBeforeCallerIncomplete: a callee whose
// last call is complete on the log, and its same-process caller whose
// last call is not. External C.Add(5) completes; R.Forward(1) crashes
// after forcing its send to C. R's tail resumes live and calls C, so C
// must be replayed — by R's own goroutine if nobody else has — before
// R can finish; an engine that orders tails globally and runs R's
// first waits on C's latch forever.
func TestRecoveryCalleeCompleteTailBeforeCallerIncomplete(t *testing.T) {
	img := equivImage{dir: t.TempDir(), counters: []string{"C"}, relays: []string{"R"}, cfg: testConfig()}
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: img.dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Injector = NewInjector().CrashAt(PointClientAfterForceSend, 1)
	_, p := startProc(t, u, "evo1", "srv", cfg)
	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.Create("R", &Relay{Server: NewRef(hc.URI())})
	if err != nil {
		t.Fatal(err)
	}
	if got := callInt(t, u.ExternalRef(hc.URI()), "Add", 5); got != 5 {
		t.Fatalf("C.Add(5) = %d", got)
	}
	if _, err := u.ExternalRef(hr.URI()).WithoutRetry().Call("Forward", 1); err == nil {
		t.Fatal("injector at client-after-force-send never fired")
	}
	u.Shutdown()

	var ref *recoveryOutcome
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(fmt.Sprintf("shards=1/%v/workers=1", mode), func(t *testing.T) {
			got := recoverImage(t, img, mode)
			if got.counters["C"] != 6 || got.relayCalls["R"] != 1 {
				t.Errorf("recovered C = %d, R.Calls = %d; want 6 and 1",
					got.counters["C"], got.relayCalls["R"])
			}
			// R's resumed call reached C exactly once: C's table
			// holds R's call 1, and nothing else was a
			// persistent caller.
			if len(got.lastCalls) != 1 || got.lastCalls[0].Seq != 1 {
				t.Errorf("last-call table = %+v, want R's call 1 only", got.lastCalls)
			}
			if ref == nil {
				ref = &got
			} else if !reflect.DeepEqual(got.lastCalls, ref.lastCalls) {
				t.Errorf("last-call table = %+v, first cell recovered %+v", got.lastCalls, ref.lastCalls)
			}
		})
	}
}

// TestRetiredRecordKindIsSkipped: record kind 12 was the discipline-change
// record, and a runtime that no longer writes it still restarts a log
// that holds one. A kind-12 frame appended between C's calls
// changes nothing a restart recovers, eager or lazy, and the dump counts
// it as a kind it does not know.
func TestRetiredRecordKindIsSkipped(t *testing.T) {
	const retired wal.RecordType = 12
	build := func(withFrame bool) equivImage {
		img := equivImage{dir: t.TempDir(), counters: []string{"C"}, relays: []string{"R"},
			touch: []string{"C"}, cfg: testConfig()}
		u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: img.dir})
		if err != nil {
			t.Fatal(err)
		}
		_, p := startProc(t, u, "evo1", "srv", testConfig())
		hc, err := p.Create("C", &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := p.Create("R", &Relay{Server: NewRef(hc.URI())})
		if err != nil {
			t.Fatal(err)
		}
		relay := u.ExternalRef(hr.URI())
		for i := 1; i <= 4; i++ {
			callInt(t, relay, "Forward", i)
			if withFrame && i == 2 {
				// The shape such a record had: the record header naming its
				// context, then a body (the method it was about).
				ctx := hc.cx.parent.id
				frame := wal.EncodeFunc(func(dst []byte) ([]byte, error) {
					return msg.AppendString(appendRecHeader(dst, ctx, trace.Ref{}), "Add"), nil
				})
				if _, err := p.log.AppendLinked(uint64(ctx), retired, frame, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The later calls' forces made the frame durable.
		p.Crash()
		u.Shutdown()
		return img
	}
	dump := func(img equivImage) string {
		var buf bytes.Buffer
		if err := DumpLog(&buf, filepath.Join(img.dir, "evo1", "srv.log")); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	plain, framed := build(false), build(true)
	if out := dump(framed); !strings.Contains(out, "\nsummary: 19 records (1 of unknown kind) in LSNs") {
		t.Errorf("dump of the log with a kind-12 frame:\n%s", out)
	}
	if out := dump(plain); !strings.Contains(out, "\nsummary: 18 records in LSNs") {
		t.Errorf("dump of the log without it:\n%s", out)
	}
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(mode.String(), func(t *testing.T) {
			want, got := recoverImage(t, plain, mode), recoverImage(t, framed, mode)
			assertEquivalent(t, want, got, false)
			if !reflect.DeepEqual(got.lastCalls, want.lastCalls) {
				t.Errorf("last-call table = %+v, without the frame %+v", got.lastCalls, want.lastCalls)
			}
			if got.counters["C"] != 10 || got.relayCalls["R"] != 4 {
				t.Errorf("recovered C = %d, R.Calls = %d; want 10 and 4", got.counters["C"], got.relayCalls["R"])
			}
		})
	}
}

// counterImage builds a crashed image of n Counter contexts C0..Cn-1
// that each served Add(1) … Add(rounds), round-robin, and returns it
// with the log's counters at the crash. Before round ckptAt (0: never)
// every save-th context saves its state and the process takes a
// checkpoint, which publishes itself.
func counterImage(t *testing.T, n, rounds, ckptAt, save int) (equivImage, wal.Stats) {
	img, st, _ := counterImageAt(t, n, rounds, save, ckptAt)
	return img, st
}

// counterImageAt is counterImage with a checkpoint before each round of
// ckptAt. It also returns the
// log's root as it was before the last of them.
func counterImageAt(t *testing.T, n, rounds, save int, ckptAt ...int) (img equivImage, st wal.Stats, prevRoot []byte) {
	t.Helper()
	img = equivImage{dir: t.TempDir(), cfg: testConfig()}
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: img.dir})
	if err != nil {
		t.Fatal(err)
	}
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	refs := make([]*Ref, n)
	handles := make([]*Handle, n)
	for i := range refs {
		name := fmt.Sprintf("C%d", i)
		if handles[i], err = p.Create(name, &Counter{}); err != nil {
			t.Fatal(err)
		}
		img.counters = append(img.counters, name)
		refs[i] = u.ExternalRef(handles[i].URI())
	}
	for round := 1; round <= rounds; round++ {
		if slices.Contains(ckptAt, round) {
			for i := 0; i < n; i += save {
				if err := handles[i].SaveState(); err != nil {
					t.Fatal(err)
				}
			}
			if prevRoot, err = os.ReadFile(filepath.Join(p.LogDir(), "root")); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for _, ref := range refs {
			callInt(t, ref, "Add", round)
		}
	}
	st = p.LogStats()
	p.Crash()
	u.Shutdown()
	return img, st, prevRoot
}

// publishedRoot reads the root of the log at logDir as an open would,
// without opening the log, which may be live: a set opened over a copy
// of the root alone hands out what the file says. A log with no root
// yet has neither.
func publishedRoot(t *testing.T, logDir string) (mark, stable ids.LSN) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(logDir, "root"))
	if os.IsNotExist(err) {
		return ids.NilLSN, ids.NilLSN
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "root"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := wal.OpenSet(dir, nil, 1) // 1: a root alone is no log to a reader's open (0)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.HintsLost() {
		t.Fatalf("%s: root lost:\n%s", logDir, data)
	}
	return set.Mark(), set.Stable()
}

// TestRecordsScannedGrowsWithBacklog pins RecoveryStats.RecordsScanned
// on a 64-context log with no checkpoint: Pass 1 reads every record
// once, and each replayed record is read once more — by the walk that
// finds its context's chain and decodes it for the replay — so the
// count is Pass 1 plus the backlog — not contexts × log length, which
// is what one filtered scan per first touch would cost — and a lazy
// restart reads what an eager one does.
func TestRecordsScannedGrowsWithBacklog(t *testing.T) {
	const n, rounds = 64, 6
	img, st := counterImage(t, n, rounds, 0, 0)
	logged := st.Appends

	// Lazy touches spread over the log: each is a first-touch replay.
	img.touch = []string{"C63", "C31", "C7", "C48"}
	eager := recoverImage(t, img, RecoveryEager)
	lazy := recoverImage(t, img, RecoveryLazy)
	assertEquivalent(t, eager, lazy, true)
	if eager.stats.CallsReplayed != n*rounds {
		t.Fatalf("replayed %d calls, want %d", eager.stats.CallsReplayed, n*rounds)
	}
	if got, want := eager.stats.RecordsScanned, logged+n*rounds; got != want {
		t.Errorf("eager scanned %d records, want Pass 1's %d plus the %d replayed", got, logged, n*rounds)
	}
	if lazy.stats.RecordsScanned != eager.stats.RecordsScanned {
		t.Errorf("lazy scanned %d records, eager %d", lazy.stats.RecordsScanned, eager.stats.RecordsScanned)
	}
}

// TestLogReadsBoundedByBlocks pins the restart's device reads
// (RecoveryStats.LogReads/LogBytesRead) to the log's bytes, not to the
// number of contexts, on an image checkpointed halfway with every other
// context's state saved: the open reads nothing, Pass 1 passes over what
// lies past the checkpoint — the log's tail check with it — a read-ahead
// block at a time, the restart records are read in LSN order through
// one reader, and the one worker holds the whole backlog in one read
// however many chains interleave in it. The same calls spread over 4
// and over 32 contexts cost the same reads, at most 1.6 times the log's
// bytes (half of it for Pass 1, all of it for the backlog, two blocks
// for the restart records), and the counts are properties of the
// image: they repeat exactly from one restart to the next. A context
// brought back by itself — a first touch — passes over its chain's span
// once, to walk it, a block per read: the replay reads nothing.
func TestLogReadsBoundedByBlocks(t *testing.T) {
	const calls = 11520    // ~400 KB: the restart records' two blocks are 0.08x of it; Pass 1 well clear of a block-count edge
	const block = 16 << 10 // wal's read-ahead unit
	reads := make(map[int]int64)
	for _, n := range []int{4, 32} {
		rounds := calls / n
		img, st := counterImage(t, n, rounds, rounds/2+1, 2)
		if st.BytesWritten < 8*block {
			t.Fatalf("image is %d bytes: too small to need several blocks", st.BytesWritten)
		}
		first := recoverImage(t, img, RecoveryEager)
		again := recoverImage(t, img, RecoveryEager)
		// The contexts that saved their state replay the second half.
		if want := int64(n/2*rounds + n/2*(rounds-rounds/2)); first.stats.CallsReplayed != want {
			t.Fatalf("replayed %d calls, want %d", first.stats.CallsReplayed, want)
		}
		s := first.stats
		if got := s.LogBytesRead; got < st.BytesWritten || 10*got > 16*st.BytesWritten {
			t.Errorf("%d contexts: restart read %d bytes of a %d-byte log, want between 1x and 1.6x",
				n, got, st.BytesWritten)
		}
		if s.LogReads != again.stats.LogReads || s.LogBytesRead != again.stats.LogBytesRead {
			t.Errorf("%d contexts: device reads do not repeat: %d (%d bytes), then %d (%d bytes)",
				n, s.LogReads, s.LogBytesRead, again.stats.LogReads, again.stats.LogBytesRead)
		}
		if s.LogReadsPass1+s.LogReadsWalk != s.LogReads || s.LogReadsWalk != 1 {
			t.Errorf("%d contexts: %d device reads, by phase Pass 1 %d + walk %d; want them to add up, and one hold",
				n, s.LogReads, s.LogReadsPass1, s.LogReadsWalk)
		}
		// Half the log is past the watermark and past the checkpoint.
		if half := (st.BytesWritten/2)/block + 2; s.LogReadsPass1 > half+3 {
			t.Errorf("%d contexts: Pass 1 and the restart records %d reads; want at most %d",
				n, s.LogReadsPass1, half+3)
		}
		reads[n] = s.LogReads
		t.Logf("%d contexts: %d records scanned with %d device reads (%d bytes) over a %d-byte log",
			n, s.RecordsScanned, s.LogReads, s.LogBytesRead, st.BytesWritten)

		// One context by itself, with a reader of its own.
		p, plan := passOne(t, img)
		for _, cx := range plan.restored {
			rd := p.log.NewReader()
			if _, err := chainOf(rd, cx); err != nil {
				t.Fatal(err)
			}
			span := int64(ids.LSN(cx.chainHead.Load()) - cx.restart())
			if bound := span/block + 1 + 1; rd.Reads() > bound { // ⌈chain bytes / block⌉, and the log's one segment
				t.Errorf("%d contexts: context %d's chain spans %d bytes: walked with %d device reads, want at most %d",
					n, cx.parent.id, span, rd.Reads(), bound)
			}
		}
	}
	if reads[4] != reads[32] {
		t.Errorf("%d device reads with 4 contexts, %d with 32: reads must not grow with contexts", reads[4], reads[32])
	}
}

// TestRestartFlatAsLogGrows: what a restart reads is set by what there
// is to redo, not by what the log retains. Two images end alike — every
// context's state saved, a checkpoint, three rounds of calls, the crash —
// behind a history of 1 round and of 1000: the restart scans the same
// records and issues the same device reads over both, eagerly and
// lazily, and a first touch — one context walked through a reader of
// its own; its replay reads nothing — reads the same.
func TestRestartFlatAsLogGrows(t *testing.T) {
	const n, tail = 8, 3
	type cost struct {
		logBytes                  int64
		eager, lazy               RecoveryStats
		touchRecords, touchDevice int64
	}
	costs := make(map[int]cost)
	for _, history := range []int{1, 1000} {
		img, st := counterImage(t, n, history+tail, history+1, 1)
		c := cost{logBytes: st.BytesWritten}
		c.eager = recoverImage(t, img, RecoveryEager).stats
		c.lazy = recoverImage(t, img, RecoveryLazy).stats
		if c.eager.CallsReplayed != n*tail {
			t.Fatalf("history %d: replayed %d calls, want %d", history, c.eager.CallsReplayed, n*tail)
		}
		p, _ := passOne(t, img)
		rd := p.log.NewReader()
		chain, err := chainOf(rd, shellNamed(t, p, "C5"))
		if err != nil {
			t.Fatal(err)
		}
		c.touchRecords, c.touchDevice = int64(len(chain)), rd.Reads()
		costs[history] = c
		t.Logf("history %d rounds, %d-byte log: %d records scanned, %d device reads (%d bytes); a first touch reads %d records with %d device reads",
			history, c.logBytes, c.eager.RecordsScanned, c.eager.LogReads, c.eager.LogBytesRead, c.touchRecords, c.touchDevice)
	}
	short, long := costs[1], costs[1000]
	if long.logBytes < 100*short.logBytes {
		t.Fatalf("logs of %d and %d bytes: the long one should retain 100x more", short.logBytes, long.logBytes)
	}
	if short.touchRecords != tail || short.touchRecords != long.touchRecords || short.touchDevice != long.touchDevice {
		t.Errorf("a first touch reads %d records with %d device reads over the short log, %d with %d over the long one; want %d records and equal reads",
			short.touchRecords, short.touchDevice, long.touchRecords, long.touchDevice, tail)
	}
	for _, mode := range []struct {
		name        string
		short, long RecoveryStats
	}{{"eager", short.eager, long.eager}, {"lazy", short.lazy, long.lazy}} {
		if mode.short.RecordsScanned != mode.long.RecordsScanned || mode.short.LogReads != mode.long.LogReads {
			t.Errorf("%s: %d records scanned with %d device reads over the short log, %d with %d over the long one",
				mode.name, mode.short.RecordsScanned, mode.short.LogReads, mode.long.RecordsScanned, mode.long.LogReads)
		}
	}
}

// TestRestartOverDamagedLog: on a checkpointed image the stable
// watermark splits the log. A bad frame past it is the torn tail of the
// crash — the open cuts it off and the restart recovers what is in
// front of it. A bad frame below it is damage to records that were
// durable: nothing is cut off, and the restart that has to read it —
// here Pass 1, at the checkpoint's first record — fails stop naming the
// LSN, instead of carrying on without every record behind it.
func TestRestartOverDamagedLog(t *testing.T) {
	const n, rounds = 4, 10
	img, _ := counterImage(t, n, rounds, rounds/2+1, 2)
	logDir := filepath.Join(img.dir, "evo1", "srv.log")
	set, err := wal.OpenSet(logDir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mark, stable, end := set.Mark(), set.Stable(), set.End()
	var last wal.Record // the last call's reply-sent marker
	if err := set.Scan(stable, func(rec wal.Record) error { last = rec; return nil }); err != nil {
		t.Fatal(err)
	}
	set.Close()
	if !(mark < stable && stable < last.LSN && last.Type == recReplySent) {
		t.Fatalf("image: mark %v, watermark %v, last record %s at %v of a log ending at %v", mark, stable, recName(last.Type), last.LSN, end)
	}
	// damaged copies the image and inverts the byte at lsn's offset + off.
	damaged := func(lsn ids.LSN, off int64) equivImage {
		cp := img
		cp.dir = t.TempDir()
		copyDir(t, img.dir, cp.dir)
		segs, err := filepath.Glob(filepath.Join(cp.dir, "evo1", "srv.log", "*.seg"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		at := int64(lsn) + off // the first segment: a record's file offset is its LSN
		if _, err := f.ReadAt(b, at); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{^b[0]}, at); err != nil {
			t.Fatal(err)
		}
		return cp
	}

	t.Run("past the watermark: truncated there, recovers", func(t *testing.T) {
		got := recoverImage(t, damaged(last.LSN, int64(last.Size)-1), RecoveryEager)
		for _, name := range img.counters {
			if got.counters[name] != rounds*(rounds+1)/2 {
				t.Errorf("%s recovered to %d, want %d", name, got.counters[name], rounds*(rounds+1)/2)
			}
		}
	})
	t.Run("below the watermark: fails stop", func(t *testing.T) {
		cp := damaged(mark, 4)
		u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: cp.dir})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Shutdown()
		m, err := u.AddMachine("evo1")
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.StartProcess("srv", cp.cfg)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch at "+mark.String()) {
			t.Fatalf("restart over a damaged checkpoint record: %v, want a checksum error at %v", err, mark)
		}
		fi, serr := os.Stat(filepath.Join(cp.dir, "evo1", "srv.log", fmt.Sprintf("%020d.seg", 16)))
		if serr != nil || fi.Size() != int64(end) {
			t.Errorf("the refused restart left a %v-byte segment (%v), want all %d bytes kept", fi, serr, end)
		}
	})
}
