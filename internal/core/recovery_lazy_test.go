package core

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// These tests pin what is particular to lazy admission (Recovery.Mode =
// RecoveryLazy) — the first-touch path, the RecoverContext API and a
// crash in the middle of the drain. That lazy and eager recovery
// compute the same thing is TestRecoveryEquivalence's business.

// TestLazyFirstTouchAndStats drives a wide backlog, restarts lazily,
// and touches the context the background drain reaches last — the
// first-touch call must be admitted with correct replayed state while
// colder contexts are still draining, and the published stats and
// recovery.lazy.* metrics must account every context.
func TestLazyFirstTouchAndStats(t *testing.T) {
	const n, rounds = 16, 12
	dir := t.TempDir()
	u, err := NewUniverse(UniverseConfig{Dir: dir})
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

	u2, err := NewUniverse(UniverseConfig{Dir: dir})
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
	cfg.Recovery = Recovery{Mode: RecoveryLazy, Parallelism: 1}
	p2, err := m2.StartProcess("srv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First touch: the hottest-first drain starts from the lowest
	// restart LSN, so the last-created context goes on demand here.
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
	dir, counters, _ := shardWorkload(t, 1)
	dst := t.TempDir()
	copyDir(t, dir, dst)
	u, err := NewUniverse(UniverseConfig{Dir: dst})
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
	dir, counters, relays := shardWorkload(t, 4)
	base := recoverImage(t, equivImage{dir: dir, counters: counters, relays: relays, cfg: testConfig()}, RecoveryEager, 1)

	dst := t.TempDir()
	copyDir(t, dir, dst)
	u, err := NewUniverse(UniverseConfig{Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Recovery = Recovery{Mode: RecoveryLazy, Parallelism: 2}
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
