package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
)

// TestForceToCoveredLSNIsClean pins the LSN-aware force contract: a
// record already covered by the synced watermark costs nothing even
// when the log tail is dirty — that is the whole point of ForceTo over
// the all-or-nothing Force.
func TestForceToCoveredLSNIsClean(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	a, err := l.Append(1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ForceTo(a); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Fatalf("Forces = %d after first ForceTo, want 1", got)
	}
	// Dirty the tail; a's force must stay free.
	if _, err := l.Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	out, err := l.SyncTo(a)
	if err != nil {
		t.Fatal(err)
	}
	if out != SyncClean {
		t.Errorf("SyncTo(covered) = %v, want SyncClean", out)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d after covered ForceTo with dirty tail, want still 1", got)
	}
	// SyncAll still covers the whole tail.
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 2 {
		t.Errorf("Forces = %d after tail Force, want 2", got)
	}
}

func TestForceToNilIsClean(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Append(1, []byte("dirty tail")); err != nil {
		t.Fatal(err)
	}
	out, err := l.SyncTo(ids.NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	if out != SyncClean {
		t.Errorf("SyncTo(nil) = %v, want SyncClean", out)
	}
	if got := l.Stats().Forces; got != 0 {
		t.Errorf("Forces = %d after nil ForceTo, want 0", got)
	}
}

func TestSyncedLSNTracksForces(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	a, err := l.Append(1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got > a {
		t.Errorf("SyncedLSN = %v before any force, covers unforced %v", got, a)
	}
	if err := l.ForceTo(a); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got <= a {
		t.Errorf("SyncedLSN = %v after ForceTo(%v), want > %v", got, a, a)
	}
}

// groupLog opens a log with the group-commit flusher running.
func groupLog(t *testing.T, cfg GroupCommitConfig, clock disk.Clock) (*Log, string, *obs.Registry) {
	t.Helper()
	l, path := openTemp(t)
	reg := obs.NewRegistry()
	l.SetMetrics(reg)
	cfg.Enabled = true
	l.StartGroupCommit(cfg, clock)
	return l, path, reg
}

// ackRec is one acknowledged append: ForceTo returned nil, so the
// record must survive any subsequent crash.
type ackRec struct {
	lsn     ids.LSN
	payload string
}

// TestGroupCommitStressAccounting runs concurrent committers against
// the flusher (virtual clock: the commit window is deterministic and
// instant) and checks the force-accounting invariant: every request is
// resolved exactly once as a device sync, a saved sync, or a clean
// force — wal.forces + wal.group.syncs_saved + wal.clean_forces equals
// the request count. Run under -race this is also the flusher's data
// race stress.
func TestGroupCommitStressAccounting(t *testing.T) {
	l, path, reg := groupLog(t, GroupCommitConfig{MaxBatch: 8}, disk.NewVirtualClock())
	const workers, iters = 8, 40

	acked := make([][]ackRec, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				payload := fmt.Sprintf("w%d-%d", g, i)
				lsn, err := l.Append(1, []byte(payload))
				if err != nil {
					t.Errorf("worker %d: Append: %v", g, err)
					return
				}
				if err := l.ForceTo(lsn); err != nil {
					t.Errorf("worker %d: ForceTo: %v", g, err)
					return
				}
				acked[g] = append(acked[g], ackRec{lsn, payload})
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	forces := snap.Counter(obs.WALForces)
	saved := snap.Counter(obs.WALGroupSyncsSaved)
	clean := snap.Counter(obs.WALCleanForces)
	if total := forces + saved + clean; total != workers*iters {
		t.Errorf("force accounting: forces %d + saved %d + clean %d = %d, want %d",
			forces, saved, clean, total, workers*iters)
	}
	if forces == 0 {
		t.Error("no device syncs at all")
	}

	// Clean close drains; every acknowledged record survives reopen.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkAcked(t, l2, acked)
}

// TestGroupCommitCrashDurability is the crash property: inject a crash
// (Discard) in the middle of a concurrent commit storm; afterwards
// every record whose ForceTo was acknowledged before the crash must be
// readable on reopen. Lost in-flight requests must fail, not hang.
func TestGroupCommitCrashDurability(t *testing.T) {
	l, path, _ := groupLog(t, GroupCommitConfig{MaxBatch: 4}, disk.NewVirtualClock())
	const workers, iters = 8, 60

	acked := make([][]ackRec, workers)
	crashed := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				payload := fmt.Sprintf("w%d-%d", g, i)
				lsn, err := l.Append(1, []byte(payload))
				if err != nil {
					return // crashed under us: unacked, nothing to check
				}
				if err := l.ForceTo(lsn); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("worker %d: ForceTo: %v", g, err)
					}
					return
				}
				acked[g] = append(acked[g], ackRec{lsn, payload})
			}
		}(g)
	}
	go func() {
		defer close(crashed)
		time.Sleep(2 * time.Millisecond) // let the storm build
		if err := l.Discard(); err != nil {
			t.Errorf("Discard: %v", err)
		}
	}()
	wg.Wait()
	<-crashed

	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkAcked(t, l2, acked)
}

func checkAcked(t *testing.T, l *Log, acked [][]ackRec) {
	t.Helper()
	n := 0
	for g, list := range acked {
		for _, a := range list {
			rec, err := l.Read(a.lsn)
			if err != nil {
				t.Fatalf("worker %d: acked record %v lost: %v", g, a.lsn, err)
			}
			if string(rec.Payload) != a.payload {
				t.Fatalf("worker %d: record %v = %q, want %q", g, a.lsn, rec.Payload, a.payload)
			}
			n++
		}
	}
	if n == 0 {
		t.Error("no records were acknowledged before the crash")
	}
}

// TestGroupCommitCloseDrainsPending holds the commit window open (an
// hour on the wall clock) so a force request is provably parked in the
// flusher queue, then closes the log: Close must resolve the waiter
// with a final sync, and the record must survive reopen.
func TestGroupCommitCloseDrainsPending(t *testing.T) {
	l, path, _ := groupLog(t, GroupCommitConfig{MaxWait: time.Hour}, disk.NewRealClock(1))
	lsn, err := l.Append(1, []byte("parked"))
	if err != nil {
		t.Fatal(err)
	}
	forceErr := make(chan error, 1)
	go func() { forceErr <- l.ForceTo(lsn) }()
	waitPending(t, l, 1)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-forceErr:
		if err != nil {
			t.Fatalf("ForceTo resolved with %v, want nil (drained by Close)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForceTo still blocked after Close")
	}
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Read(lsn); err != nil {
		t.Errorf("drained record lost: %v", err)
	}
}

// TestGroupCommitCrashFailsPending is the other shutdown mode: Discard
// (a crash) must fail parked waiters with ErrClosed instead of
// acknowledging records it is about to throw away.
func TestGroupCommitCrashFailsPending(t *testing.T) {
	l, path, _ := groupLog(t, GroupCommitConfig{MaxWait: time.Hour}, disk.NewRealClock(1))
	lsn, err := l.Append(1, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	forceErr := make(chan error, 1)
	go func() { forceErr <- l.ForceTo(lsn) }()
	waitPending(t, l, 1)

	if err := l.Discard(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-forceErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("ForceTo resolved with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForceTo still blocked after Discard")
	}
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Read(lsn); err == nil {
		t.Error("unacknowledged record survived the crash — ack semantics too weak to test")
	}
}

// waitPending polls until the flusher queue holds at least n waiters.
func waitPending(t *testing.T, l *Log, n int) {
	t.Helper()
	l.mu.Lock()
	g := l.gc
	l.mu.Unlock()
	if g == nil {
		t.Fatal("group commit not running")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		got := len(g.pending)
		g.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher queue never reached %d waiters", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitBackpressure fills the bounded waiter queue (MaxBatch
// 1 bounds it at 4) while the first commit window is still open; the
// excess committers must block — visible as wal.group.backpressure —
// and still complete once the flusher drains.
func TestGroupCommitBackpressure(t *testing.T) {
	l, _, reg := groupLog(t,
		GroupCommitConfig{MaxWait: 50 * time.Millisecond, MaxBatch: 1},
		disk.NewRealClock(1))
	defer l.Close()
	// A single burst can serialize under an unlucky scheduler (each
	// committer finishing before the next starts sees an empty queue),
	// so repeat the burst until the counter moves, bounded.
	const committers = 32
	for attempt := 0; attempt < 10; attempt++ {
		var wg sync.WaitGroup
		for g := 0; g < committers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lsn, err := l.Append(1, []byte("x"))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.ForceTo(lsn); err != nil {
					t.Errorf("ForceTo: %v", err)
				}
			}()
		}
		wg.Wait()
		if reg.Snapshot().Counter(obs.WALGroupBackpressure) > 0 {
			return
		}
	}
	t.Error("10 bursts of 32 committers against a 4-deep queue produced no backpressure")
}

// TestGroupCommitDisabledZeroValue: the zero GroupCommitConfig must
// leave the direct force path in place.
func TestGroupCommitDisabledZeroValue(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.StartGroupCommit(GroupCommitConfig{}, nil)
	if l.gc != nil {
		t.Fatal("zero-value config started a flusher")
	}
	lsn, err := l.Append(1, []byte("direct"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ForceTo(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1", got)
	}
}

// gateModel is a disk model whose Sync parks until released, pinning
// the "device sync in flight" state open for as long as a test needs.
type gateModel struct {
	entered chan struct{} // closed when Sync is reached
	release chan struct{} // Sync returns when this closes
}

func (m *gateModel) Write(int) {}
func (m *gateModel) Sync() {
	select {
	case <-m.entered:
	default:
		close(m.entered)
	}
	<-m.release
}
func (m *gateModel) Name() string { return "gate" }

// TestAppendNotBlockedByInFlightSync pins the mutex-release fix: while
// a device sync is in flight, Append must proceed — the log mutex is
// not held across the device sync. The gate model holds the sync open
// until the concurrent append has demonstrably completed.
func TestAppendNotBlockedByInFlightSync(t *testing.T) {
	model := &gateModel{entered: make(chan struct{}), release: make(chan struct{})}
	l, err := Open(t.TempDir()+"/slow.log", model)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("to sync")); err != nil {
		t.Fatal(err)
	}
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		if _, err := l.SyncAll(); err != nil {
			t.Errorf("Force: %v", err)
		}
	}()
	select {
	case <-model.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("device sync never started")
	}
	appendDone := make(chan struct{})
	go func() {
		defer close(appendDone)
		if _, err := l.Append(1, []byte("concurrent")); err != nil {
			t.Errorf("Append during sync: %v", err)
		}
	}()
	select {
	case <-appendDone: // appended while the sync was provably in flight
	case <-time.After(5 * time.Second):
		close(model.release)
		t.Fatal("Append blocked behind the in-flight device sync")
	}
	close(model.release)
	<-syncDone
}
