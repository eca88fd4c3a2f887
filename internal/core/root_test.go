package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ids"
)

// This file pins what moving the checkpoint's marks into the log's root
// (shards.meta) promises: one write per publication with two crash
// states, a log directory that carries its own marks, and publications
// that are serialized and never go backwards.

// rootPath is the root of the image's "srv" log.
func rootPath(img equivImage) string {
	return filepath.Join(img.dir, "evo1", "srv.log", "shards.meta")
}

// withRoot copies the image and replaces its root; a non-nil tmp is left
// beside it as the temp file of a write that never reached its rename.
func withRoot(t *testing.T, img equivImage, root, tmp []byte) equivImage {
	t.Helper()
	cp := img
	cp.dir = t.TempDir()
	copyDir(t, img.dir, cp.dir)
	if err := os.WriteFile(rootPath(cp), root, 0o644); err != nil {
		t.Fatal(err)
	}
	if tmp != nil {
		if err := os.WriteFile(rootPath(cp)+".tmp", tmp, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// assertCounters checks the recovered counters against the model: each
// served Add(1) … Add(rounds).
func assertCounters(t *testing.T, got recoveryOutcome, n, rounds int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if name := fmt.Sprintf("C%d", i); got.counters[name] != rounds*(rounds+1)/2 {
			t.Errorf("%s recovered as %d, want %d", name, got.counters[name], rounds*(rounds+1)/2)
		}
	}
}

// TestRestartFromEitherRoot: a crash during a publication leaves the old
// root (and perhaps the temp file of the write) or the new one. A restart
// from either recovers the same state; from the old root it scans what a
// restart that never saw the temp file scans, from the new one less.
func TestRestartFromEitherRoot(t *testing.T) {
	const n, rounds = 16, 12
	for _, shards := range []int{1, 4} {
		img, _, oldRoot := shardedCounterImage(t, shards, n, rounds, 1, 4, 9)
		newRoot, err := os.ReadFile(rootPath(img))
		if err != nil {
			t.Fatal(err)
		}
		onOld := withRoot(t, img, oldRoot, nil)
		oldMarks, _ := publishedRoot(t, filepath.Dir(rootPath(onOld)))
		newMarks, _ := publishedRoot(t, filepath.Dir(rootPath(img)))
		if len(oldMarks) == 0 || len(newMarks) == 0 || reflect.DeepEqual(oldMarks, newMarks) {
			t.Fatalf("shards=%d: roots carry marks %v and %v, want two different checkpoints published", shards, oldMarks, newMarks)
		}
		if entries, _ := os.ReadDir(filepath.Dir(rootPath(img))); len(entries) != 1+max(shards, 1) {
			t.Errorf("shards=%d: the log directory holds %d entries, want shards.meta and the shard directories only", shards, len(entries))
		}
		if wk, _ := filepath.Glob(filepath.Join(img.dir, "evo1", "*.wk")); len(wk) != 0 {
			t.Errorf("shards=%d: the machine directory holds %v", shards, wk)
		}
		for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
			t.Run(fmt.Sprintf("shards=%d/%v", shards, mode), func(t *testing.T) {
				clean := recoverImage(t, onOld, mode, 2)
				torn := recoverImage(t, withRoot(t, img, oldRoot, newRoot), mode, 2)
				done := recoverImage(t, img, mode, 2)
				for _, got := range []recoveryOutcome{clean, torn, done} {
					assertCounters(t, got, n, rounds)
				}
				assertEquivalent(t, clean, torn, true)
				if !reflect.DeepEqual(torn.marks, oldMarks) || !reflect.DeepEqual(done.marks, newMarks) {
					t.Errorf("restarts scanned from %v and %v, want the old root's %v and the new root's %v", torn.marks, done.marks, oldMarks, newMarks)
				}
				if done.stats.RecordsScanned >= torn.stats.RecordsScanned {
					t.Errorf("scanned %d records from the new root, %d from the old one; want fewer", done.stats.RecordsScanned, torn.stats.RecordsScanned)
				}
			})
		}
	}
}

// TestReshardKeepsRoot: a restart that reshards 1 → 4 rewrites the root
// at open, marks and watermarks carried through — Pass 1 of the old
// stream starts at its mark — and a root whose hint section is gone
// costs a scan from the very beginning, not the state.
func TestReshardKeepsRoot(t *testing.T) {
	const n, rounds = 8, 10
	img, st := counterImage(t, n, rounds, 6, 2)
	base := recoverImage(t, img, RecoveryEager, 1)
	assertCounters(t, base, n, rounds)
	if base.marks[1].IsNil() || base.stable[1] <= base.marks[1] {
		t.Fatalf("image: mark %v, watermark %v", base.marks[1], base.stable[1])
	}

	resharded := img
	resharded.cfg.WAL = WALConfig{Shards: 4}
	got := recoverImage(t, resharded, RecoveryEager, 1)
	assertEquivalent(t, base, got, true)
	if !reflect.DeepEqual(got.marks, base.marks) || !reflect.DeepEqual(got.stable, base.stable) {
		t.Errorf("resharded restart opened with marks %v and watermarks %v, want %v and %v", got.marks, got.stable, base.marks, base.stable)
	}

	root, err := os.ReadFile(rootPath(img))
	if err != nil {
		t.Fatal(err)
	}
	hintless := recoverImage(t, withRoot(t, img, root[:bytes.Index(root, []byte("sum "))], nil), RecoveryEager, 1)
	assertEquivalent(t, base, hintless, false)
	if len(hintless.marks)+len(hintless.stable) != 0 {
		t.Errorf("a root without hints opened with marks %v and watermarks %v", hintless.marks, hintless.stable)
	}
	// Pass 1 alone differs: every record once, against those past the mark.
	if pass1 := hintless.stats.RecordsScanned - base.stats.RecordsScanned; pass1 <= 0 || hintless.stats.RecordsScanned < st.Appends {
		t.Errorf("scanned %d records without hints, %d with, of %d logged", hintless.stats.RecordsScanned, base.stats.RecordsScanned, st.Appends)
	}
}

// TestRecreatedLogDirStartsWithoutMarks: the marks live in the log
// directory, so a directory removed and recreated under the same process
// name cannot pair with the marks of the log it replaced.
func TestRecreatedLogDirStartsWithoutMarks(t *testing.T) {
	u := newTestUniverse(t)
	m, p := startProc(t, u, "evo1", "srv", testConfig())
	h, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	callInt(t, ref, "Add", 1)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	callInt(t, ref, "Add", 1)
	if len(p.log.Marks()) == 0 {
		t.Fatal("checkpoint not published")
	}
	logDir := p.LogDir()
	p.Crash()
	if err := os.RemoveAll(logDir); err != nil {
		t.Fatal(err)
	}

	p, err = m.StartProcess("srv", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if marks := p.log.Marks(); len(marks) != 0 {
		t.Fatalf("a recreated log directory opened with marks %v", marks)
	}
	if h, err = p.Create("C", &Counter{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		callInt(t, ref, "Add", 10)
	}
	p.Crash()
	if p, err = m.StartProcess("srv", testConfig()); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := callInt(t, ref, "Get"); got != 50 {
		t.Errorf("recovered C = %d over the recreated log, want 50", got)
	}
}

// TestRestartTrimsFromLoadedMarks: a restarted process need not wait for
// its next checkpoint to reclaim log space — the marks its open loaded
// are the ones recovery would scan from — and never trims at or past
// them.
func TestRestartTrimsFromLoadedMarks(t *testing.T) {
	u := newTestUniverse(t)
	cfg := testConfig()
	cfg.SaveStateEvery = 10
	m, p := startProc(t, u, "evo1", "srv", cfg)
	p.SetLogSegmentBytes(2 * 1024)
	h, err := p.Create("C", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	for i := 0; i < 300; i++ {
		callInt(t, ref, "Add", 1)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		callInt(t, ref, "Add", 1)
	}
	mark := p.log.Marks()[1]
	if st := p.LogStats(); mark.IsNil() || st.TrimmedBytes != 0 || st.Segments < 4 {
		t.Fatalf("image: mark %v, %d segments, %d bytes trimmed", mark, st.Segments, st.TrimmedBytes)
	}
	p.Crash()

	cfg.AutoTrimLog = true
	if p, err = m.StartProcess("srv", cfg); err != nil {
		t.Fatal(err)
	}
	if got := p.log.Marks()[1]; got != mark {
		t.Fatalf("restart loaded mark %v, want %v", got, mark)
	}
	if err := p.TrimLog(); err != nil {
		t.Fatal(err)
	}
	start := p.log.Shards()[0].Log.Start()
	if st := p.LogStats(); st.TrimmedBytes == 0 || start > mark {
		t.Errorf("trimmed %d bytes, log now starts at %v; want a trim that stops at or before the mark %v", st.TrimmedBytes, start, mark)
	}
	callInt(t, ref, "Add", 1)
	p.Crash()
	if p, err = m.StartProcess("srv", cfg); err != nil {
		t.Fatalf("restart over the trimmed log: %v", err)
	}
	defer p.Close()
	if got := callInt(t, ref, "Get"); got != 306 {
		t.Errorf("recovered C = %d over the trimmed log, want 306", got)
	}
}

// TestCheckpointPublicationSerialized: with CheckpointEvery 1 every call
// takes a checkpoint and whichever force covers it publishes it, from
// many contexts at once. The root on disk never names an older checkpoint
// than it did while they run, and at quiescence it is the root the live log reports — the
// one TrimLog trusts. (On 4 shards a checkpoint is published once every
// stream is stable as far as its tables reach, and one taken per call is
// superseded before that: there it is every 12th call.) Run under -race.
func TestCheckpointPublicationSerialized(t *testing.T) {
	for _, c := range []struct{ shards, every int }{{1, 1}, {4, 12}} {
		t.Run(fmt.Sprintf("shards=%d", c.shards), func(t *testing.T) {
			u := newTestUniverse(t)
			cfg := testConfig()
			cfg.CheckpointEvery = c.every
			cfg.SaveStateEvery = 3
			cfg.WAL = WALConfig{Shards: c.shards}
			_, p := startProc(t, u, "evo1", "srv", cfg)
			defer p.Close()
			const contexts, calls = 16, 40 // CompIDs 12-15 route to the meta shard of 4, where the checkpoint's force lands
			var callers sync.WaitGroup
			for i := 0; i < contexts; i++ {
				h, err := p.Create(fmt.Sprintf("C%d", i), &Counter{})
				if err != nil {
					t.Fatal(err)
				}
				callers.Add(1)
				go func(ref *Ref) {
					defer callers.Done()
					for j := 0; j < calls; j++ {
						if _, err := ref.Call("Add", 1); err != nil {
							t.Error(err)
							return
						}
					}
				}(u.ExternalRef(h.URI()))
			}
			done := make(chan struct{})
			go func() { callers.Wait(); close(done) }()
			var last, lastStable map[uint32]ids.LSN
			samples, moved := 0, 0
			for running := true; running; samples++ {
				select {
				case <-done:
					running = false // and one last sample, at quiescence
				default:
				}
				marks, stable := publishedRoot(t, p.LogDir())
				for s, l := range lastStable {
					if stable[s] < l {
						t.Fatalf("stream %d: published watermark went from %v back to %v", s, l, stable[s])
					}
				}
				// One stream's mark is the begin-checkpoint LSN itself. (A
				// sharded vector is lower bounds its publisher computed on the
				// way in; the newer checkpoint's may be the lower.)
				if c.shards == 1 && marks[1] < last[1] {
					t.Fatalf("published mark went from %v back to %v", last[1], marks[1])
				}
				if !reflect.DeepEqual(marks, last) {
					moved++
				}
				last, lastStable = marks, stable
			}
			if live := p.log.Marks(); !reflect.DeepEqual(last, live) || len(live) == 0 {
				t.Errorf("root on disk %v, live log reports %v", last, live)
			}
			if moved < 2 {
				t.Errorf("%d samples saw the root move %d times; the run published too little to judge", samples, moved)
			}
			t.Logf("%d samples, root moved %d times", samples, moved)
		})
	}
}
