package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/wal"
)

// This file pins what a restart replays: for every restored context,
// exactly the message records at or past its restart LSN, in the order
// they were written — read off the log through the frames' links, from
// the head Pass 1 found or the checkpoint's table kept.

// chainsAndReference runs Pass 1 over a copy of img and walks every
// restored context's chain, as a restart would, and builds the reference
// by brute force: every stream scanned from its start in era order, a
// message record kept when its context was restored and the record is
// not older than the restart LSN.
func chainsAndReference(t *testing.T, img equivImage) (plan *restorePlan, got, want map[ids.CompID][]ids.LSN) {
	t.Helper()
	p, plan := passOne(t, img)
	got = make(map[ids.CompID][]ids.LSN)
	rd := p.log.NewReader()
	for ctx, from := range plan.restart {
		var err error
		if got[ctx], err = walkChain(rd, ctx, plan.heads[ctx], from); err != nil {
			t.Fatal(err)
		}
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
	return plan, got, want
}

// passOne restarts srv over a copy of img as far as Pass 1: contexts
// restored, restart LSNs and chain heads known, nothing replayed.
func passOne(t *testing.T, img equivImage) (*Process, *restorePlan) {
	t.Helper()
	dst := t.TempDir()
	copyDir(t, img.dir, dst)
	u, err := NewUniverse(UniverseConfig{Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Shutdown)
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
	t.Cleanup(func() { p.shutdown() })
	plan, err := p.restore()
	if err != nil || plan == nil {
		t.Fatalf("Pass 1: plan %v, err %v", plan, err)
	}
	return p, plan
}

func assertChains(t *testing.T, img equivImage) (entries int) {
	t.Helper()
	plan, got, want := chainsAndReference(t, img)
	for ctx, from := range plan.restart {
		if !slices.Equal(got[ctx], want[ctx]) {
			t.Errorf("context %d (restart %v): chain %v, brute-force reference %v", ctx, from, got[ctx], want[ctx])
		}
		entries += len(got[ctx])
	}
	return entries
}

// randomChainImage leaves a crashed log that puts every kind of chain
// in front of the walk: state saved before the checkpoint (restart LSN
// below the mark) and after it, a context created after the mark, one
// that logs nothing after it (its head comes from the checkpoint's
// table), relays (outgoing-reply records), and a context the
// checkpoint's table no longer names but whose records go on — dropped.
// Even seeds roll the log's segments every 2 KiB: chains cross files.
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
	if seed%2 == 0 {
		p.SetLogSegmentBytes(2 << 10)
	}
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
	idle, err := p.Create("Idle", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		callInt(t, u.ExternalRef(idle.URI()), "Add", 7)
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

// TestChainWalkFailsStop: a link that leads to no record, or to a record
// that is not the context's message, stops the restart with both LSNs —
// the record that was reached and the one that linked to it — and
// nothing is replayed past a hole.
func TestChainWalkFailsStop(t *testing.T) {
	img, _ := counterImage(t, 2, 6, 0, 0)
	p, plan := passOne(t, img)
	var ctx ids.CompID
	for id, cx := range p.contexts {
		if cx.parent.name == "C1" {
			ctx = id
		}
	}
	rd := p.log.NewReader()
	chain, err := walkChain(rd, ctx, plan.heads[ctx], plan.restart[ctx])
	if err != nil || len(chain) != 6 {
		t.Fatalf("intact chain: %v, %v", chain, err)
	}
	head, below := chain[5], chain[4]
	// A reply-sent record follows every incoming one: right type of
	// frame, wrong kind of record.
	rec, err := rd.ReadAt(head)
	if err != nil {
		t.Fatal(err)
	}
	notAMessage := head + ids.LSN(rec.Size)
	if _, err := walkChain(rd, ctx, notAMessage, plan.restart[ctx]); err == nil ||
		!strings.Contains(err.Error(), notAMessage.String()) || !strings.Contains(err.Error(), "reply-sent") {
		t.Errorf("walk from a reply-sent record: %v", err)
	}
	// The other context's chain is not this one's.
	var other ids.CompID
	for id := range plan.restart {
		if id != ctx {
			other = id
		}
	}
	if _, err := walkChain(rd, ctx, plan.heads[other], plan.restart[ctx]); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("context %d", other)) {
		t.Errorf("walk down another context's chain: %v", err)
	}
	// A record that is gone: overwrite the one the head links to with a
	// frame of the same size that is not the record.
	prev, err := rd.ReadAt(below)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(p.LogDir(), "shard-001", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The first segment's header is as long as its first LSN's offset:
	// a record's file offset is its LSN's.
	if _, err := f.WriteAt(make([]byte, prev.Size), int64(below.Offset())); err != nil {
		t.Fatal(err)
	}
	_, err = walkChain(p.log.NewReader(), ctx, head, plan.restart[ctx])
	if err == nil || !strings.Contains(err.Error(), below.String()) || !strings.Contains(err.Error(), head.String()) {
		t.Errorf("walk into a hole: %v, want both %v and %v named", err, below, head)
	}
}
