package core

import (
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
	"repro/internal/wal"
)

// This file pins the recovery contract in one table: whatever the
// mode (eager, lazy), the number of replay workers (1, 4) and the
// shard layout (1, 4, 8), recovering the same crashed log must produce
// identical component state, identical last-call tables and identical
// replay and suppression counts — across a clean crash, crashes
// injected inside a served call (where a tail replay runs off the end
// of the log and resumes live), a log that changed shard counts
// mid-life, and the adaptive controller's promotion boundary. Each
// cell recovers its own copy of the crashed universe directory; lazy
// cells take calls mid-drain. Run under -race: on-demand replays race
// the background workers here by design.

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

// equivImage is a crashed universe on disk, how to restart its "srv"
// process, and what to read back afterwards.
type equivImage struct {
	dir              string
	counters, relays []string
	// touch names the contexts a lazy restart calls (Add 0) while the
	// drain is running: first-touch replays racing the workers. Add(0)
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
	promoted   []AdaptiveAssignment
	suppressed int64
	stats      RecoveryStats
	// marks and stable are what the restart's open found in the root.
	marks, stable map[uint32]ids.LSN
}

func sortLastCalls(s []lastCallSaved) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Caller != s[j].Caller {
			return fmt.Sprint(s[i].Caller) < fmt.Sprint(s[j].Caller)
		}
		return s[i].Seq < s[j].Seq
	})
}

// recoverImage clones the image and recovers it under the given mode
// and worker count: restart, touch (lazy), drain, collect. The restart
// runs under a watchdog, so a replay that waits on a latch nobody will
// open fails its cell in seconds instead of hanging the run.
func recoverImage(t *testing.T, img equivImage, mode RecoveryMode, workers int) recoveryOutcome {
	t.Helper()
	dst := t.TempDir()
	copyDir(t, img.dir, dst)
	u, err := NewUniverse(UniverseConfig{Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Shutdown()
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := img.cfg
	cfg.Recovery = Recovery{Mode: mode, Parallelism: workers}

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
		promoted:   adaptivePromoted(p.AdaptiveAssignments()),
		marks:      p.log.Marks(),
		stable:     p.log.(*wal.Set).StableMarks(),
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
func assertEngineStats(t *testing.T, got recoveryOutcome, mode RecoveryMode, workers int) {
	t.Helper()
	s := got.stats
	if s.Mode != mode {
		t.Errorf("stats.Mode = %v, want %v", s.Mode, mode)
	}
	if s.WorkersUsed < 1 || s.WorkersUsed > workers {
		t.Errorf("WorkersUsed = %d, want 1..%d", s.WorkersUsed, workers)
	}
	// Every restored context was replayed exactly once, by a toucher or
	// by a worker; which side won each race varies run to run.
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
	if !reflect.DeepEqual(got.promoted, ref.promoted) {
		t.Errorf("promoted assignments = %v, reference recovered %v", got.promoted, ref.promoted)
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
	name   string
	shards []int
	// build leaves a crashed universe on disk for one value of the
	// shard axis. It runs on the scenario's *testing.T, so directories
	// it makes outlive the per-cell subtests.
	build func(t *testing.T, shards int) equivImage
	// sameLog marks scenarios whose shard axis varies only the restart
	// configuration of one log (resharding at restart).
	sameLog bool
	// check, when set, asserts what the scenario expects of the
	// baseline run.
	check func(t *testing.T, base recoveryOutcome)
}

// injectedCrashImage drives four counters on a log with the given
// shard count until the injector crashes the process mid-call at point
// — late enough that earlier calls replay normally and the last one
// exercises the crash point.
func injectedCrashImage(t *testing.T, point InjectionPoint, shards int) equivImage {
	t.Helper()
	img := equivImage{dir: t.TempDir(), touch: []string{"C3"}, cfg: testConfig()}
	u, err := NewUniverse(UniverseConfig{Dir: img.dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = WALConfig{Shards: shards}
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
	scs := []equivScenario{{
		// Counters plus relays (whose replays suppress outgoing sends
		// answered from the log). Restarts carry no WAL config: the
		// shard layout must be detected from the directory alone.
		name:   "clean-crash",
		shards: []int{1, 4, 8},
		build: func(t *testing.T, shards int) equivImage {
			dir, counters, relays := shardWorkload(t, shards)
			assertSetOnDisk(t, filepath.Join(dir, "evo1", "srv.log"), shards)
			// Late restart LSNs: the workers reach these last.
			return equivImage{dir: dir, counters: counters, relays: relays,
				touch: []string{"C5", "C4"}, cfg: testConfig()}
		},
		check: replayedAndSuppressed,
	}}
	for _, point := range []InjectionPoint{
		PointServerAfterLogIncoming,
		PointServerAfterExecute,
		PointServerBeforeSendReply,
	} {
		scs = append(scs, equivScenario{
			name:   string(point),
			shards: []int{1, 4, 8},
			build: func(t *testing.T, shards int) equivImage {
				return injectedCrashImage(t, point, shards)
			},
		})
	}
	var wantC0 int // C0's value across both eras of the mixed-era log
	scs = append(scs, equivScenario{
		// A one-shard era followed by a 4-shard era, restarted with the
		// zero config again: per-context replay must cross the era
		// barrier in order even when contexts replay independently.
		name:   "mixed-era",
		shards: []int{4},
		build: func(t *testing.T, _ int) equivImage {
			dir, counters, relays, want := mixedEraWorkload(t)
			wantC0 = want
			return equivImage{dir: dir, counters: counters, relays: relays,
				touch: []string{"C0", "C3"}, cfg: testConfig()}
		},
		check: func(t *testing.T, base recoveryOutcome) {
			replayedAndSuppressed(t, base)
			if got := base.counters["C0"]; got != wantC0 {
				t.Errorf("C0 recovered as %d, want %d", got, wantC0)
			}
		},
	})
	return append(scs, adaptiveBoundaryScenarios()...)
}

// TestRecoveryEquivalence is the table. The first cell of a scenario —
// eager, one worker, the first shard count — is the baseline; the
// first cell of every further shard count is compared with it on what
// was recovered, and every other cell with the first cell of its own
// log on everything.
func TestRecoveryEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var base *recoveryOutcome
			for _, shards := range sc.shards {
				img := sc.build(t, shards)
				var logBase *recoveryOutcome
				for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
					for _, workers := range []int{1, 4} {
						t.Run(fmt.Sprintf("shards=%d/%v/workers=%d", shards, mode, workers), func(t *testing.T) {
							got := recoverImage(t, img, mode, workers)
							assertEngineStats(t, got, mode, workers)
							switch {
							case base == nil:
								if sc.check != nil {
									sc.check(t, got)
								}
								base, logBase = &got, &got
							case logBase == nil:
								assertEquivalent(t, *base, got, sc.sameLog)
								logBase = &got
							default:
								assertEquivalent(t, *logBase, got, true)
							}
						})
					}
				}
			}
		})
	}
}

// TestRecoveryCalleeCompleteTailBeforeCallerIncomplete: a callee whose
// last call is complete on the log, and its same-process caller whose
// last call is not. External C.Add(5) completes; R.Forward(1) crashes
// after forcing its send to C. R's tail resumes live and calls C, so C
// must be replayed — by R's own goroutine if nobody else has — before
// R can finish; an engine that orders tails globally and runs R's
// first waits on C's latch forever.
func TestRecoveryCalleeCompleteTailBeforeCallerIncomplete(t *testing.T) {
	for _, shards := range []int{1, 4} {
		img := equivImage{dir: t.TempDir(), counters: []string{"C"}, relays: []string{"R"}, cfg: testConfig()}
		u, err := NewUniverse(UniverseConfig{Dir: img.dir})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.WAL = WALConfig{Shards: shards}
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
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d/%v/workers=%d", shards, mode, workers), func(t *testing.T) {
					got := recoverImage(t, img, mode, workers)
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
	}
}

// counterImage builds a crashed image of n Counter contexts C0..Cn-1
// that each served Add(1) … Add(rounds), round-robin, and returns it
// with the log's counters at the crash. Before round ckptAt (0: never)
// every save-th context saves its state and the process takes a
// checkpoint, which the next call's force publishes.
func counterImage(t *testing.T, n, rounds, ckptAt, save int) (equivImage, wal.Stats) {
	img, st, _ := shardedCounterImage(t, 0, n, rounds, save, ckptAt)
	return img, st
}

// shardedCounterImage is counterImage on a log of the given shard count
// with a checkpoint before each round of ckptAt, published by the forces
// of that round. It also returns the log's root, shards.meta, as it was
// before the last of them.
func shardedCounterImage(t *testing.T, shards, n, rounds, save int, ckptAt ...int) (img equivImage, st wal.Stats, prevRoot []byte) {
	t.Helper()
	img = equivImage{dir: t.TempDir(), cfg: testConfig()}
	u, err := NewUniverse(UniverseConfig{Dir: img.dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = WALConfig{Shards: shards}
	_, p := startProc(t, u, "evo1", "srv", cfg)
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
			if prevRoot, err = os.ReadFile(filepath.Join(p.LogDir(), "shards.meta")); err != nil {
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
// of shards.meta alone hands out what the file says.
func publishedRoot(t *testing.T, logDir string) (marks, stable map[uint32]ids.LSN) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(logDir, "shards.meta"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shards.meta"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := wal.OpenSet(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.HintsLost() {
		t.Fatalf("%s: hint section lost:\n%s", logDir, data)
	}
	return set.Marks(), set.StableMarks()
}

// TestRecordsScannedGrowsWithBacklog pins RecoveryStats.RecordsScanned
// on a 64-context log with no checkpoint: Pass 1 reads every record
// once, and each replayed record is read twice more — by the walk that
// finds its context's chain and by the replay — so the count is Pass 1
// plus twice the backlog — not contexts × log length, which is what one
// filtered scan per first touch would cost — and a lazy restart reads
// what an eager one does.
func TestRecordsScannedGrowsWithBacklog(t *testing.T) {
	const n, rounds = 64, 6
	img, st := counterImage(t, n, rounds, 0, 0)
	logged := st.Appends

	// Lazy touches spread over the log: each is a first-touch replay.
	img.touch = []string{"C63", "C31", "C7", "C48"}
	eager := recoverImage(t, img, RecoveryEager, 1)
	lazy := recoverImage(t, img, RecoveryLazy, 1)
	assertEquivalent(t, eager, lazy, true)
	if eager.stats.CallsReplayed != n*rounds {
		t.Fatalf("replayed %d calls, want %d", eager.stats.CallsReplayed, n*rounds)
	}
	if got, want := eager.stats.RecordsScanned, logged+2*n*rounds; got != want {
		t.Errorf("eager scanned %d records, want Pass 1's %d plus twice the %d replayed", got, logged, n*rounds)
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
// replayed by itself — a first touch — passes over its chain's span
// once to walk it and once to replay it, a block per read.
func TestLogReadsBoundedByBlocks(t *testing.T) {
	const calls = 6400     // ~400 KB: the restart records' two blocks are 0.08x of it; Pass 1 well clear of a block-count edge
	const block = 16 << 10 // wal's read-ahead unit
	reads := make(map[int]int64)
	for _, n := range []int{4, 32} {
		rounds := calls / n
		img, st := counterImage(t, n, rounds, rounds/2+1, 2)
		if st.BytesWritten < 8*block {
			t.Fatalf("image is %d bytes: too small to need several blocks", st.BytesWritten)
		}
		first := recoverImage(t, img, RecoveryEager, 1)
		again := recoverImage(t, img, RecoveryEager, 1)
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
		if sum := s.LogReadsPass1 + s.LogReadsWalk + s.LogReadsReplay; sum != s.LogReads ||
			s.LogReadsWalk != 1 || s.LogReadsReplay != 0 {
			t.Errorf("%d contexts: %d device reads, by phase Pass 1 %d + walk %d + replay %d; want them to add up, one hold and nothing past it",
				n, s.LogReads, s.LogReadsPass1, s.LogReadsWalk, s.LogReadsReplay)
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
		for ctx, restart := range plan.restart {
			head := plan.heads[ctx]
			rd := p.log.NewReader()
			chain, err := walkChain(rd, ctx, head, restart)
			if err != nil {
				t.Fatal(err)
			}
			walk := rd.Reads()
			for _, lsn := range chain {
				if _, err := rd.ReadAt(lsn); err != nil {
					t.Fatal(err)
				}
			}
			bound := int64(head-restart)/block + 1 + 1 // ⌈chain bytes / block⌉, and the log's one segment
			if replay := rd.Reads() - walk; walk > bound || replay > bound {
				t.Errorf("%d contexts: context %d's chain spans %d bytes: walked with %d device reads, replayed with %d, want at most %d each",
					n, ctx, head-restart, walk, replay, bound)
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
// behind a history of 1 round and of 700: the restart scans the same
// records and issues the same device reads over both, eagerly and
// lazily, and a first touch — one context walked and replayed through a
// reader of its own — reads the same.
func TestRestartFlatAsLogGrows(t *testing.T) {
	const n, tail = 8, 3
	type cost struct {
		logBytes                  int64
		eager, lazy               RecoveryStats
		touchRecords, touchDevice int64
	}
	costs := make(map[int]cost)
	for _, history := range []int{1, 700} {
		img, st := counterImage(t, n, history+tail, history+1, 1)
		c := cost{logBytes: st.BytesWritten}
		c.eager = recoverImage(t, img, RecoveryEager, 1).stats
		c.lazy = recoverImage(t, img, RecoveryLazy, 1).stats
		if c.eager.CallsReplayed != n*tail {
			t.Fatalf("history %d: replayed %d calls, want %d", history, c.eager.CallsReplayed, n*tail)
		}
		p, plan := passOne(t, img)
		ctx := ids.CompID(0)
		for id, cx := range p.contexts {
			if cx.parent.name == "C5" {
				ctx = id
			}
		}
		rd := p.log.NewReader()
		chain, err := walkChain(rd, ctx, plan.heads[ctx], plan.restart[ctx])
		if err != nil {
			t.Fatal(err)
		}
		for _, lsn := range chain {
			if _, err := rd.ReadAt(lsn); err != nil {
				t.Fatal(err)
			}
		}
		c.touchRecords, c.touchDevice = 2*int64(len(chain)), rd.Reads()
		costs[history] = c
		t.Logf("history %d rounds, %d-byte log: %d records scanned, %d device reads (%d bytes); a first touch reads %d records with %d device reads",
			history, c.logBytes, c.eager.RecordsScanned, c.eager.LogReads, c.eager.LogBytesRead, c.touchRecords, c.touchDevice)
	}
	short, long := costs[1], costs[700]
	if long.logBytes < 100*short.logBytes {
		t.Fatalf("logs of %d and %d bytes: the long one should retain 100x more", short.logBytes, long.logBytes)
	}
	if short.touchRecords != 2*tail || short.touchRecords != long.touchRecords || short.touchDevice != long.touchDevice {
		t.Errorf("a first touch reads %d records with %d device reads over the short log, %d with %d over the long one; want %d records and equal reads",
			short.touchRecords, short.touchDevice, long.touchRecords, long.touchDevice, 2*tail)
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
	marks, stable, end := set.Marks(), set.StableMarks()[1], set.Shards()[0].Log.End()
	var last wal.Record // the last call's reply-sent marker
	if err := set.Shards()[0].Log.Scan(stable, func(rec wal.Record) error { last = rec; return nil }); err != nil {
		t.Fatal(err)
	}
	set.Close()
	if !(marks[1] < stable && stable < last.LSN && last.Type == recReplySent) {
		t.Fatalf("image: mark %v, watermark %v, last record %s at %v of a log ending at %v", marks[1], stable, recName(last.Type), last.LSN, end)
	}
	// damaged copies the image and inverts the byte at lsn's offset + off.
	damaged := func(lsn ids.LSN, off int64) equivImage {
		cp := img
		cp.dir = t.TempDir()
		copyDir(t, img.dir, cp.dir)
		segs, err := filepath.Glob(filepath.Join(cp.dir, "evo1", "srv.log", "shard-001", "*.seg"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		at := int64(lsn.Offset()) + off // the first segment: a record's file offset is its LSN's
		if _, err := f.ReadAt(b, at); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{^b[0]}, at); err != nil {
			t.Fatal(err)
		}
		return cp
	}

	t.Run("past the watermark: truncated there, recovers", func(t *testing.T) {
		got := recoverImage(t, damaged(last.LSN, int64(last.Size)-1), RecoveryEager, 1)
		for _, name := range img.counters {
			if got.counters[name] != rounds*(rounds+1)/2 {
				t.Errorf("%s recovered to %d, want %d", name, got.counters[name], rounds*(rounds+1)/2)
			}
		}
	})
	t.Run("below the watermark: fails stop", func(t *testing.T) {
		cp := damaged(marks[1], 4)
		u, err := NewUniverse(UniverseConfig{Dir: cp.dir})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Shutdown()
		m, err := u.AddMachine("evo1")
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.StartProcess("srv", cp.cfg)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch at "+marks[1].String()) {
			t.Fatalf("restart over a damaged checkpoint record: %v, want a checksum error at %v", err, marks[1])
		}
		fi, serr := os.Stat(filepath.Join(cp.dir, "evo1", "srv.log", "shard-001", fmt.Sprintf("%020d.seg", uint64(ids.StreamLSN(1, 16)))))
		if serr != nil || fi.Size() != int64(end.Offset()) {
			t.Errorf("the refused restart left a %v-byte segment (%v), want all %d bytes kept", fi, serr, end.Offset())
		}
	})
}
