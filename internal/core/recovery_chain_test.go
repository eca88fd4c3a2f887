package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/wal"
)

// This file pins what the discovery scan and the head pass hand the
// replay engine: for every restored context, exactly the message records
// at or past its restart LSN, in the order they were written — whatever
// part of the log each of the two scans happened to read.

// chainsAndReference runs Pass 1 and buildChains over a copy of img, as
// a restart would, and builds the reference by brute force: every stream
// scanned from its start in era order, a message record kept when its
// context was restored and the record is not older than the restart LSN.
func chainsAndReference(t *testing.T, img equivImage) (restart map[ids.CompID]ids.LSN, got, want map[ids.CompID][]ids.LSN) {
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
	procID, existing, err := m.svc.Register("srv")
	if err != nil || !existing {
		t.Fatalf("srv registered before: %v, err %v", existing, err)
	}
	p, err := newProcess(m, "srv", procID, img.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.shutdown()
	plan, err := p.restore()
	if err != nil || plan == nil {
		t.Fatalf("Pass 1: plan %v, err %v", plan, err)
	}
	got, _, err = p.buildChains(plan.restart, plan.filed, plan.scannedFrom)
	if err != nil {
		t.Fatal(err)
	}
	want = make(map[ids.CompID][]ids.LSN)
	for _, sh := range p.log.Shards() {
		err := sh.Log.Scan(ids.NilLSN, func(rec wal.Record) error {
			if rec.Type != recIncoming && rec.Type != recOutgoingReply {
				return nil
			}
			ctx, err := recCtx(rec.Payload)
			if err != nil {
				return err
			}
			if from, ok := plan.restart[ctx]; ok && rec.LSN >= from {
				want[ctx] = append(want[ctx], rec.LSN)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return plan.restart, got, want
}

func assertChains(t *testing.T, img equivImage) (entries int) {
	t.Helper()
	restart, got, want := chainsAndReference(t, img)
	if len(got) != len(restart) {
		t.Errorf("%d chains for %d restored contexts", len(got), len(restart))
	}
	for ctx, from := range restart {
		if !slices.Equal(got[ctx], want[ctx]) {
			t.Errorf("context %d (restart %v): chain %v, brute-force reference %v", ctx, from, got[ctx], want[ctx])
		}
		entries += len(got[ctx])
	}
	return entries
}

// randomChainImage leaves a crashed log that puts every kind of cut in
// front of buildChains: state saved before the checkpoint (restart LSN
// below the mark: head pass) and after it (candidates filed before the
// state record was seen), a context created after the mark, relays
// (outgoing-reply records), and a context the checkpoint's table no
// longer names but whose records go on — dropped.
func randomChainImage(t *testing.T, seed int64, shards int) equivImage {
	t.Helper()
	img := equivImage{dir: t.TempDir(), cfg: testConfig()}
	u, err := NewUniverse(UniverseConfig{Dir: img.dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = WALConfig{Shards: shards}
	_, p := startProc(t, u, "evo1", "srv", cfg)
	rng := rand.New(rand.NewSource(seed))
	var handles []*Handle
	var calls []func()
	add := func(name string, obj any, method string) {
		h, err := p.Create(name, obj)
		if err != nil {
			t.Fatal(err)
		}
		ref := u.ExternalRef(h.URI())
		handles = append(handles, h)
		calls = append(calls, func() { callInt(t, ref, method, 1+rng.Intn(9)) })
	}
	for i := 0; i < 6; i++ {
		add(fmt.Sprintf("C%d", i), &Counter{}, "Add")
	}
	for i := 0; i < 2; i++ {
		add(fmt.Sprintf("R%d", i), &Relay{Server: NewRef(handles[i].URI())}, "Forward")
	}
	burst := func(n int) {
		for i := 0; i < n; i++ {
			calls[rng.Intn(len(calls))]()
		}
	}
	save := func(n int) {
		for i := 0; i < n; i++ {
			if err := handles[rng.Intn(len(handles))].SaveState(); err != nil {
				t.Fatal(err)
			}
		}
	}
	burst(40)
	save(3)
	burst(25)
	dropped := handles[5].cx.parent.id
	p.mu.Lock()
	delete(p.contexts, dropped)
	p.mu.Unlock()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	burst(30) // the first forced reply publishes the checkpoint's marks
	save(3)
	add("Late", &Counter{}, "Add")
	burst(40)
	p.Crash()
	u.Shutdown()
	return img
}

func TestChainsEqualBruteForce(t *testing.T) {
	for _, sc := range equivScenarios() {
		// Images are built on the scenario's T: some scenarios build one
		// log and vary only how it is reopened (resharded 1 -> 4).
		t.Run(sc.name, func(t *testing.T) {
			for _, shards := range sc.shards {
				img := sc.build(t, shards)
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					assertChains(t, img)
				})
			}
		})
	}
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("random/shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				img := randomChainImage(t, seed, shards)
				if n := assertChains(t, img); n == 0 {
					t.Error("image has no backlog")
				}
				// And the image recovers: the dropped context's filed
				// records and the late context's missing mark trip nothing.
				img.counters = []string{"C0", "Late"}
				recoverImage(t, img, RecoveryLazy, 2)
			})
		}
	}
}
