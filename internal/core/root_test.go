package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

// This file pins what the log's root — the well-known file holding the
// checkpoint's mark — promises: one write per publication with two crash
// states, a log directory that carries its own mark, publications that
// are serialized and never go backwards, and a restart that needs none
// of it to recover.

// rootPath is the root of the image's "srv" log.
func rootPath(img equivImage) string {
	return filepath.Join(img.dir, "evo1", "srv.log", "root")
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
// restart that never saw the temp file scans, from the new one less. The
// cells keep the "shards=1" label of the sharded rows they stood beside.
func TestRestartFromEitherRoot(t *testing.T) {
	const n, rounds = 16, 12
	img, _, oldRoot := counterImageAt(t, n, rounds, 1, 4, 9)
	newRoot, err := os.ReadFile(rootPath(img))
	if err != nil {
		t.Fatal(err)
	}
	onOld := withRoot(t, img, oldRoot, nil)
	oldMark, _ := publishedRoot(t, filepath.Dir(rootPath(onOld)))
	newMark, _ := publishedRoot(t, filepath.Dir(rootPath(img)))
	if oldMark.IsNil() || newMark <= oldMark {
		t.Fatalf("roots carry marks %v and %v, want two checkpoints published in order", oldMark, newMark)
	}
	assertLogOnDisk(t, filepath.Dir(rootPath(img)))
	if wk, _ := filepath.Glob(filepath.Join(img.dir, "evo1", "*.wk")); len(wk) != 0 {
		t.Errorf("the machine directory holds %v", wk)
	}
	for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
		t.Run(fmt.Sprintf("shards=1/%v", mode), func(t *testing.T) {
			clean := recoverImage(t, onOld, mode)
			torn := recoverImage(t, withRoot(t, img, oldRoot, newRoot), mode)
			done := recoverImage(t, img, mode)
			for _, got := range []recoveryOutcome{clean, torn, done} {
				assertCounters(t, got, n, rounds)
			}
			assertEquivalent(t, clean, torn, true)
			if torn.mark != oldMark || done.mark != newMark {
				t.Errorf("restarts scanned from %v and %v, want the old root's %v and the new root's %v", torn.mark, done.mark, oldMark, newMark)
			}
			if done.stats.RecordsScanned >= torn.stats.RecordsScanned {
				t.Errorf("scanned %d records from the new root, %d from the old one; want fewer", done.stats.RecordsScanned, torn.stats.RecordsScanned)
			}
		})
	}
}

// TestRestartWithoutRoot: the root holds hints only. A log whose root was
// deleted, or fails its checksum, restarts to the same state and the same
// last-call table by scanning from the start — every record once —
// where the root would have let Pass 1 start at the mark.
func TestRestartWithoutRoot(t *testing.T) {
	const n, rounds = 8, 10
	img, st := counterImage(t, n, rounds, 6, 2)
	base := recoverImage(t, img, RecoveryEager)
	assertCounters(t, base, n, rounds)
	if base.mark.IsNil() || base.stable <= base.mark {
		t.Fatalf("image: mark %v, watermark %v", base.mark, base.stable)
	}
	root, err := os.ReadFile(rootPath(img))
	if err != nil {
		t.Fatal(err)
	}
	deleted := img
	deleted.dir = t.TempDir()
	copyDir(t, img.dir, deleted.dir)
	if err := os.Remove(rootPath(deleted)); err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), root...)
	damaged[len(damaged)-2] ^= 0xFF
	for name, cp := range map[string]equivImage{"deleted": deleted, "damaged": withRoot(t, img, damaged, nil)} {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []RecoveryMode{RecoveryEager, RecoveryLazy} {
				got := recoverImage(t, cp, mode)
				assertEquivalent(t, base, got, false)
				if !reflect.DeepEqual(got.lastCalls, base.lastCalls) {
					t.Errorf("%v: last-call table = %+v, with the root %+v", mode, got.lastCalls, base.lastCalls)
				}
				if !got.mark.IsNil() || !got.stable.IsNil() {
					t.Errorf("%v: opened with mark %v and watermark %v, want none", mode, got.mark, got.stable)
				}
				// Pass 1 alone differs: every record once, against those past the mark.
				if got.stats.RecordsScanned <= base.stats.RecordsScanned || got.stats.RecordsScanned < st.Appends {
					t.Errorf("%v: scanned %d records without the root, %d with it, of %d logged", mode, got.stats.RecordsScanned, base.stats.RecordsScanned, st.Appends)
				}
			}
		})
	}
}

// TestRecreatedLogDirStartsWithoutMarks: the mark lives in the log
// directory, so a directory removed and recreated under the same process
// name cannot pair with the mark of the log it replaced.
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
	if p.log.Mark().IsNil() {
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
	if mark := p.log.Mark(); !mark.IsNil() {
		t.Fatalf("a recreated log directory opened with mark %v", mark)
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
// its next checkpoint to reclaim log space — the mark its open loaded
// is the one recovery would scan from — and never trims past it.
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
	mark := p.log.Mark()
	if st := p.LogStats(); mark.IsNil() || st.TrimmedBytes != 0 || st.Segments < 4 {
		t.Fatalf("image: mark %v, %d segments, %d bytes trimmed", mark, st.Segments, st.TrimmedBytes)
	}
	p.Crash()

	if p, err = m.StartProcess("srv", cfg); err != nil {
		t.Fatal(err)
	}
	if got := p.log.Mark(); got != mark {
		t.Fatalf("restart loaded mark %v, want %v", got, mark)
	}
	if err := p.TrimLog(); err != nil {
		t.Fatal(err)
	}
	start := p.log.Start()
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
// than it did while they run, and at quiescence it is the root the live
// log reports — the one TrimLog trusts. The one cell keeps the
// "shards=1" label it had beside a sharded cell. Run under -race.
func TestCheckpointPublicationSerialized(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.CheckpointEvery = 1
		cfg.SaveStateEvery = 3
		_, p := startProc(t, u, "evo1", "srv", cfg)
		defer p.Close()
		const contexts, calls = 16, 40
		// Each caller makes at least calls calls, then keeps calling
		// until the sampler has seen the root move minMoves times (or
		// gives up after 10 s and fails below): how many publications
		// the samples catch depends on scheduling, not on the count.
		const minMoves = 2
		stop := make(chan struct{})
		halted := false
		halt := func() {
			if !halted {
				halted = true
				close(stop)
			}
		}
		var callers sync.WaitGroup
		defer func() { halt(); callers.Wait() }() // callers finish before p closes
		for i := 0; i < contexts; i++ {
			h, err := p.Create(fmt.Sprintf("C%d", i), &Counter{})
			if err != nil {
				t.Fatal(err)
			}
			callers.Add(1)
			go func(ref *Ref) {
				defer callers.Done()
				for j := 0; ; j++ {
					if j >= calls {
						select {
						case <-stop:
							return
						default:
						}
					}
					if _, err := ref.Call("Add", 1); err != nil {
						t.Error(err)
						return
					}
				}
			}(u.ExternalRef(h.URI()))
		}
		done := make(chan struct{})
		go func() { callers.Wait(); close(done) }()
		var last, lastStable ids.LSN
		samples, moved := 0, 0
		giveUp := time.After(10 * time.Second)
		for running := true; running; samples++ {
			select {
			case <-done:
				running = false // and one last sample, at quiescence
			default:
			}
			mark, stable := publishedRoot(t, p.LogDir())
			if stable < lastStable {
				t.Fatalf("published watermark went from %v back to %v", lastStable, stable)
			}
			if mark < last {
				t.Fatalf("published mark went from %v back to %v", last, mark)
			}
			if mark != last {
				moved++
			}
			last, lastStable = mark, stable
			if moved >= minMoves {
				halt()
			}
			select {
			case <-giveUp:
				halt()
			default:
			}
		}
		if live := p.log.Mark(); last != live || live.IsNil() {
			t.Errorf("root on disk %v, live log reports %v", last, live)
		}
		if moved < minMoves {
			t.Errorf("%d samples saw the root move %d times; the run published too little to judge", samples, moved)
		}
		t.Logf("%d samples, root moved %d times", samples, moved)
	})
}
