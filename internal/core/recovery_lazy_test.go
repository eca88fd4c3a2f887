package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
)

// These tests pin what is particular to lazy admission (Recovery.Mode =
// RecoveryLazy) — the first-touch path, the RecoverContext API, a
// Handle on a pending context, the last calls a pending context's state
// record names, what a touch reads, and a crash in the middle of the
// drain. That lazy and eager recovery compute the same thing is
// TestRecoveryEquivalence's business.

// TestLazyFirstTouchAndStats drives a wide backlog, restarts lazily,
// and touches the context the background drain reaches last — the
// first-touch call must be admitted with correct replayed state while
// colder contexts are still draining, and the published stats and
// recovery.lazy.* metrics must account every context.
func TestLazyFirstTouchAndStats(t *testing.T) {
	const n, rounds = 16, 12
	dir := t.TempDir()
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
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
	var names []string
	refs := make(map[string]*Ref)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("C%d", i)
		h, err := p.Create(name, &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		refs[name] = u.ExternalRef(h.URI())
	}
	for round := 1; round <= rounds; round++ {
		for i, name := range names {
			callInt(t, refs[name], "Add", i+round)
		}
	}
	p.Crash()
	u.Shutdown()

	u2, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Shutdown()
	m2, err := u2.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	cfg.Recovery = Recovery{Mode: RecoveryLazy}
	p2, err := m2.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First touch: the worker drains in restart-LSN order, so the
	// last-created context goes on demand here.
	last := names[n-1]
	h, ok := p2.Lookup(last)
	if !ok {
		t.Fatalf("%s missing after Pass 1", last)
	}
	want := rounds*(n-1) + rounds*(rounds+1)/2
	if got := callInt(t, u2.ExternalRef(h.URI()), "Add", 0); got != want {
		t.Fatalf("first touch of %s returned %d, want %d (stale or unreplayed state)", last, got, want)
	}
	if err := p2.DrainRecovery(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stats, ok := p2.LastRecovery()
	if !ok {
		t.Fatal("LastRecovery reported no run")
	}
	if stats.Mode != RecoveryLazy {
		t.Errorf("stats.Mode = %v, want lazy", stats.Mode)
	}
	if stats.TimeToFirstCallNanos <= 0 {
		t.Errorf("TimeToFirstCallNanos = %d, want > 0", stats.TimeToFirstCallNanos)
	}
	if sum := stats.ContextsOnDemand + stats.ContextsBackground; sum != n {
		t.Errorf("on-demand %d + background %d = %d, want %d",
			stats.ContextsOnDemand, stats.ContextsBackground, sum, n)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.RecoveryLazyOnDemand) + snap.Counter(obs.RecoveryLazyBackground); got != int64(n) {
		t.Errorf("recovery.lazy replay counters sum to %d, want %d", got, n)
	}
	if got := snap.HistogramFor(obs.RecoveryLazyCtxReplayMicros).Count; got != int64(n) {
		t.Errorf("ctx_replay_micros count = %d, want %d", got, n)
	}
	if got := snap.HistogramFor(obs.RecoveryLazyTTFCMicros).Count; got != 1 {
		t.Errorf("ttfc_micros count = %d, want 1", got)
	}
}

// TestLazyRecoverContextAPI exercises RecoverContext as the API form of
// on-demand replay during a live lazy drain: it must replay (or await)
// the named context and leave its state correct, and remain usable in
// its classic role after the drain completes.
func TestLazyRecoverContextAPI(t *testing.T) {
	dir, counters, _ := counterRelayWorkload(t, powerCut(), 0)
	dst := t.TempDir()
	copyDir(t, dir, dst)
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Shutdown()
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Recovery = Recovery{Mode: RecoveryLazy}
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RecoverContext("C5"); err != nil {
		t.Fatalf("RecoverContext during drain: %v", err)
	}
	h, _ := p.Lookup("C5")
	// C5 got 8 rounds of Add(5+round): 8*5 + 36.
	if got := h.Object().(*Counter).N; got != 8*5+36 {
		t.Errorf("C5 = %d after RecoverContext, want %d", got, 8*5+36)
	}
	if err := p.DrainRecovery(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// After the drain the classic path (restore fresh + replay) must
	// still work for a live context repair.
	if err := p.RecoverContext("C2"); err != nil {
		t.Fatalf("RecoverContext after drain: %v", err)
	}
	h2, _ := p.Lookup("C2")
	if got := h2.Object().(*Counter).N; got != 8*2+36 {
		t.Errorf("C2 = %d after post-drain RecoverContext, want %d", got, 8*2+36)
	}
	_ = counters
}

// TestLazyCrashMidDrain crashes the process again while the lazy drain
// is still running: DrainRecovery must not hang, and a subsequent
// eager restart must still recover the full pre-crash state (lazy
// replay advances no restart LSNs, so an interrupted drain loses
// nothing).
func TestLazyCrashMidDrain(t *testing.T) {
	dir, counters, relays := counterRelayWorkload(t, powerCut(), 0)
	base := recoverImage(t, equivImage{dir: dir, counters: counters, relays: relays, cfg: testConfig()}, RecoveryEager)

	dst := t.TempDir()
	copyDir(t, dir, dst)
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Recovery = Recovery{Mode: RecoveryLazy}
	p, err := m.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Crash() // mid-drain, with high probability
	if err := p.DrainRecovery(); err != nil {
		t.Fatalf("drain after crash: %v", err)
	}

	// Third restart, eager: the interrupted drain must not have
	// corrupted or lost anything.
	cfg2 := testConfig()
	p2, err := m.StartProcess("srv", cfg2)
	if err != nil {
		t.Fatalf("restart after mid-drain crash: %v", err)
	}
	if err := p2.DrainRecovery(); err != nil {
		t.Fatal(err)
	}
	for name, want := range base.counters {
		h, ok := p2.Lookup(name)
		if !ok {
			t.Fatalf("counter %s lost after mid-drain crash", name)
		}
		if got := h.Object().(*Counter).N; got != want {
			t.Errorf("counter %s = %d after mid-drain crash, want %d", name, got, want)
		}
	}
	u.Shutdown()
}

// Gate is a counter whose Add blocks while gateHold is armed: a test
// arms it around a restart to hold the replaying goroutine inside one
// context's replay.
type Gate struct{ N int }

// gateHooks is an armed gateHold: entered closes when an Add first
// blocks, release lets every blocked Add go on.
type gateHooks struct {
	entered, release chan struct{}
	once             sync.Once
}

var gateHold atomic.Pointer[gateHooks]

func (g *Gate) Add(d int) (int, error) {
	if h := gateHold.Load(); h != nil {
		h.once.Do(func() { close(h.entered) })
		<-h.release
	}
	g.N += d
	return g.N, nil
}

// gateImage leaves a crashed srv in a new directory hosting G, a Gate
// created first — the lowest restart LSN, so the worker takes it first —
// and C, a Counter, each of which served Add(1) … Add(rounds).
func gateImage(t *testing.T, rounds int) string {
	t.Helper()
	dir := t.TempDir()
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	hg, err := p.Create("G", &Gate{})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= rounds; round++ {
		callInt(t, u.ExternalRef(hg.URI()), "Add", round)
		callInt(t, u.ExternalRef(hc.URI()), "Add", round)
	}
	p.Crash()
	u.Shutdown()
	return dir
}

// holdGate arms gateHold: every Gate.Add blocks until release, which
// the test's cleanup calls too. It returns once a replay has entered a
// Gate.Add, or fails the test after 3 s.
func holdGate(t *testing.T, start func()) (release func()) {
	t.Helper()
	hooks := &gateHooks{entered: make(chan struct{}), release: make(chan struct{})}
	gateHold.Store(hooks)
	var released sync.Once
	release = func() {
		released.Do(func() {
			gateHold.Store(nil)
			close(hooks.release)
		})
	}
	t.Cleanup(release)
	start()
	select {
	case <-hooks.entered:
	case <-time.After(3 * time.Second):
		t.Fatal("the worker never entered G's replay")
	}
	return release
}

// lazyCfg is testConfig with lazy admission.
func lazyCfg() Config {
	cfg := testConfig()
	cfg.Recovery = Recovery{Mode: RecoveryLazy}
	return cfg
}

// TestLazyTouchNotQueuedBehindDrain: a first touch brings its context
// back on its own goroutine at once, whatever the background worker is
// replaying. The worker takes G first; its replay blocks. A call to C
// must still come back with C's replayed value while G's replay is held.
func TestLazyTouchNotQueuedBehindDrain(t *testing.T) {
	const rounds = 5
	dir := gateImage(t, rounds)
	u2, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Shutdown()
	m2, err := u2.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	var p2 *Process
	release := holdGate(t, func() {
		if p2, err = m2.StartProcess("srv", lazyCfg()); err != nil {
			t.Fatal(err)
		}
	})

	h, ok := p2.Lookup("C")
	if !ok {
		t.Fatal("C missing after Pass 1")
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := u2.ExternalRef(h.URI()).Call("Add", 0)
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{n: res[0].(int)}
	}()
	want := rounds * (rounds + 1) / 2
	select {
	case r := <-done:
		if r.err != nil || r.n != want {
			t.Fatalf("C.Add(0) during G's replay = %d, %v; want %d", r.n, r.err, want)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("a first touch of C waited 3 s behind the worker's replay of G")
	}

	release()
	if err := p2.DrainRecovery(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stats, ok := p2.LastRecovery()
	if !ok {
		t.Fatal("LastRecovery reported no run")
	}
	if stats.ContextsOnDemand != 1 || stats.ContextsBackground != 1 {
		t.Errorf("on-demand %d, background %d; want C on demand and G in the background",
			stats.ContextsOnDemand, stats.ContextsBackground)
	}
}

// TestLazySaveStateWhilePending: a Handle on a context a lazy restart has
// not brought back yet reads and saves its replayed state, not its
// restart record's. The worker is held in G's replay while C, still
// pending, is read and saved as its own new restart point; a save of the
// pre-replay state would lose C's five logged calls to the next restart.
func TestLazySaveStateWhilePending(t *testing.T) {
	const rounds = 5
	want := rounds * (rounds + 1) / 2
	dir := gateImage(t, rounds)
	u2, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Shutdown()
	m2, err := u2.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	var p2 *Process
	release := holdGate(t, func() {
		if p2, err = m2.StartProcess("srv", lazyCfg()); err != nil {
			t.Fatal(err)
		}
	})
	h, ok := p2.Lookup("C")
	if !ok {
		t.Fatal("C missing after Pass 1")
	}
	if got := h.Object().(*Counter).N; got != want {
		t.Errorf("C reads %d while its restart is pending, want the replayed %d", got, want)
	}
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := p2.DrainRecovery(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	p3, err := m2.StartProcess("srv", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	h3, ok := p3.Lookup("C")
	if !ok {
		t.Fatal("C missing after the eager restart")
	}
	if got := h3.Object().(*Counter).N; got != want {
		t.Errorf("C = %d after the eager restart, want %d", got, want)
	}
}

// TestLazyTrimKeepsPendingLastCalls: the last-call table is complete
// when the first call is admitted — Pass 1 seeds it from a state
// record's last calls as well as from the checkpoint's dump and the
// reply records it passes — so a checkpoint and a trim taken while a
// context is still pending keep every reply the table names. A
// persistent caller's last call to C comes after the image's
// checkpoint; C's state record past the checkpoint names its reply, and
// the restart LSNs of both contexts lie segments past the reply, so
// only the table's entry holds the trim back. Restarted lazily with the
// worker held in G, the process checkpoints, publishes and trims;
// restarted again, it must answer the caller's duplicate with the
// stored reply, not re-execute it or fault.
func TestLazyTrimKeepsPendingLastCalls(t *testing.T) {
	const segBytes = 2 << 10
	dir := t.TempDir()
	u, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, p := startProc(t, u, "evo1", "srv", testConfig())
	p.SetLogSegmentBytes(segBytes)
	hg, err := p.Create("G", &Gate{})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	gate := u.ExternalRef(hg.URI())
	filler := func(n int) {
		for i := 0; i < n; i++ {
			callInt(t, gate, "Add", 1)
		}
	}
	filler(100) // segments ahead of the reply, for the trim to reclaim
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	caller := ids.ComponentAddr{Machine: "evo9", Proc: 1, Comp: 1}
	args, nargs, _ := encodeArgsHelper(5)
	dup := func() *msg.Call {
		return &msg.Call{ID: ids.CallID{Caller: caller, Seq: 8}, Target: hc.URI(), Method: "Add",
			Args: args, NumArgs: nargs, CallerType: msg.Persistent}
	}
	first := serve(t, p, dup())
	if first.Fault != "" {
		t.Fatalf("persistent call: %s", first.Fault)
	}
	if err := hc.SaveState(); err != nil { // writes the reply, then the state naming it
		t.Fatal(err)
	}
	reply := p.lastCalls.get(caller).replyLSN
	filler(200)
	if err := hg.SaveState(); err != nil {
		t.Fatal(err)
	}
	filler(3)                              // G's chain past its state: the worker's replay holds in it
	if err := hc.SaveState(); err != nil { // C's restart record: past G's, naming the same reply
		t.Fatal(err)
	}
	if _, err := p.log.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if reply.IsNil() || hg.RestartLSN()-reply < 2*segBytes || hc.RestartLSN() < hg.RestartLSN() {
		t.Fatalf("image: reply at %v, G restarts at %v, C at %v; want the reply a whole segment behind G, and G before C",
			reply, hg.RestartLSN(), hc.RestartLSN())
	}
	p.Crash()
	u.Shutdown()

	u2, err := NewUniverse(UniverseConfig{dev: powerCut(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Shutdown()
	m2, err := u2.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	var p2 *Process
	release := holdGate(t, func() {
		if p2, err = m2.StartProcess("srv", lazyCfg()); err != nil {
			t.Fatal(err)
		}
	})
	if err := p2.Checkpoint(); err != nil { // publishes it, and trims to its mark
		t.Fatal(err)
	}
	if p2.LogStats().TrimmedBytes == 0 {
		t.Fatal("the trim reclaimed nothing")
	}
	p2.Crash()
	release()
	if err := p2.DrainRecovery(); err != nil {
		t.Fatal(err)
	}

	p3, err := m2.StartProcess("srv", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	again := serve(t, p3, dup())
	if again.Fault != "" {
		t.Fatalf("the caller's duplicate after the trim: %s", again.Fault)
	}
	if string(again.Results) != string(first.Results) {
		t.Error("the duplicate's reply differs from the original")
	}
	h3, _ := p3.Lookup("C")
	if got := h3.Object().(*Counter).N; got != 5 {
		t.Errorf("C = %d, want 5: the duplicate must not execute again", got)
	}
}

// TestLazyTouchReadsItsSpanOnce: a lazy restart with one first touch
// reads what an eager restart reads plus that context's walk — at most
// ⌈span / block⌉ + 1 device reads over its chain's span, once: the walk
// decodes what the replay needs. The image is the benchmark's shape: 64
// contexts, a checkpoint halfway with the even ones' state saved; C63
// replays from its creation and is the worker's 32nd, so the touch
// usually gets there first (if the worker does, the touch reads nothing).
func TestLazyTouchReadsItsSpanOnce(t *testing.T) {
	const n, rounds = 64, 100
	const block = 16 << 10 // wal's read-ahead unit
	img, _ := counterImage(t, n, rounds, rounds/2+1, 2)
	eager := recoverImage(t, img, RecoveryEager)
	p, _ := passOne(t, img)
	touched := shellNamed(t, p, "C63")
	span := int64(ids.LSN(touched.chainHead.Load()) - touched.restart())
	img.touch = []string{"C63"}
	lazy := recoverImage(t, img, RecoveryLazy)
	if bound := eager.stats.LogReads + (span+block-1)/block + 1; lazy.stats.LogReads > bound {
		t.Errorf("a lazy restart with one touch issued %d device reads (Pass 1 %d, walks %d); want at most the eager %d plus %d for the touched span of %d bytes",
			lazy.stats.LogReads, lazy.stats.LogReadsPass1, lazy.stats.LogReadsWalk, eager.stats.LogReads, bound-eager.stats.LogReads, span)
	}
	t.Logf("eager %d device reads, lazy with one touch %d (Pass 1 %d, walks %d), touched span %d bytes",
		eager.stats.LogReads, lazy.stats.LogReads, lazy.stats.LogReadsPass1, lazy.stats.LogReadsWalk, span)
}
