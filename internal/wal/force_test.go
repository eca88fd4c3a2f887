package wal

import (
	"errors"
	"os"
	"testing"

	"repro/internal/obs"
)

// TestCleanForceIsFreeAndNotDoubleCounted pins the "clean force is
// free" contract at the device boundary: forcing an already-clean log
// does no I/O, does not advance Stats().Forces, and is accounted only
// under the wal.clean_forces counter — never under wal.forces. Site
// counters in core key off Stats().Forces advancing, so this is also
// the regression guard against double-counting clean forces anywhere
// upstream.
func TestCleanForceIsFreeAndNotDoubleCounted(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	reg := obs.NewRegistry()
	l.SetMetrics(reg)

	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Forces != 1 {
		t.Fatalf("Forces = %d after one dirty force, want 1", after.Forces)
	}

	// Repeated forces on a clean log: free, and counted separately.
	for i := 0; i < 3; i++ {
		if _, err := l.SyncAll(); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Forces != 1 {
		t.Errorf("Forces = %d after clean forces, want still 1", s.Forces)
	}
	if s.PhysicalWrites != after.PhysicalWrites {
		t.Errorf("PhysicalWrites advanced on a clean force: %d -> %d",
			after.PhysicalWrites, s.PhysicalWrites)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.WALForces); got != 1 {
		t.Errorf("wal.forces counter = %d, want 1", got)
	}
	if got := snap.Counter(obs.WALCleanForces); got != 3 {
		t.Errorf("wal.clean_forces counter = %d, want 3", got)
	}
	// The force-latency histogram only observes device forces.
	force := snap.HistogramFor(obs.WALForceMicros)
	if force.Count != 1 {
		t.Errorf("wal.force_micros count = %d, want 1", force.Count)
	}
	// A leader that neither rode nor held a window took two stopwatch
	// readings: its arrival is its sync's start, and the one end stamp
	// closes wal.force_micros, wal.group.wait_micros and SyncBusyNanos.
	if wait := snap.HistogramFor(obs.WALGroupWaitMicros); wait.Count != 1 || wait.Sum != force.Sum || after.SyncBusyNanos/1e3 != force.Sum {
		t.Errorf("one undelayed force: wait_micros %d×%dµs, force_micros %dµs, SyncBusyNanos %dns; want the same interval thrice",
			wait.Count, wait.Sum, force.Sum, after.SyncBusyNanos)
	}

	// Dirtying the log re-arms the real force path.
	if _, err := l.Append(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 2 {
		t.Errorf("Forces = %d after second dirty force, want 2", got)
	}
	if got := reg.Snapshot().Counter(obs.WALForces); got != 2 {
		t.Errorf("wal.forces counter = %d, want 2", got)
	}
}

// TestFailedSyncStopsTheLog pins fail-stop on a failed fsync: the
// active segment's descriptor is swapped for a closed one under a live
// log, so the device sync fails; then the good descriptor comes back —
// the kernel that answers the next fsync with success after dropping
// the dirty pages. The log must not fall for it: the first error
// sticks to every later force and append, the watermark stays where
// the last good sync left it, and a crash truncates back to it.
func TestFailedSyncStopsTheLog(t *testing.T) {
	l, path := openTemp(t)
	good, err := l.Append(1, []byte("stable"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncTo(good); err != nil {
		t.Fatal(err)
	}
	mark := l.SyncedLSN()
	lost, err := l.Append(1, []byte("written, never stable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	dead, err := os.Open(segPaths(t, l)[0])
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	l.mu.Lock()
	seg := l.active()
	live := seg.f
	seg.f = dead
	l.mu.Unlock()

	_, syncErr := l.SyncTo(lost)
	if syncErr == nil || errors.Is(syncErr, ErrClosed) {
		t.Fatalf("SyncTo over a dead descriptor = %v, want the device error", syncErr)
	}
	l.mu.Lock()
	seg.f = live
	l.mu.Unlock()

	if _, err := l.SyncTo(lost); err != syncErr {
		t.Errorf("SyncTo after the failed sync = %v, want the first error again", err)
	}
	if _, err := l.SyncAll(); err != syncErr {
		t.Errorf("SyncAll after the failed sync = %v, want the first error again", err)
	}
	if _, err := l.Append(1, []byte("more")); err != syncErr {
		t.Errorf("Append after the failed sync = %v, want the first error again", err)
	}
	if _, err := l.AppendLinked(0, 1, EncodeFunc(func(dst []byte) ([]byte, error) { return dst, nil }), nil); err != syncErr {
		t.Errorf("AppendLinked after the failed sync = %v, want the first error again", err)
	}
	if got := l.SyncedLSN(); got != mark {
		t.Errorf("SyncedLSN = %v after the failed sync, want it left at %v", got, mark)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1: a failed sync is not a force", got)
	}

	if err := l.Discard(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Read(good); err != nil {
		t.Errorf("record below the watermark lost: %v", err)
	}
	if _, err := l2.Read(lost); err == nil {
		t.Error("record whose sync failed survived the crash")
	}
}

// TestUnsyncedSegmentsAcrossASync drives the two ways the unsynced list
// can change under a leader whose device sync is in flight (the mutex
// is released there), on top of the failed-sync case above: a segment
// that grew stays listed for the next force and the watermark stops at
// what the flush covered; a segment trimmed away is forgotten, and its
// failed sync — the descriptor died with it — does not stop the log.
func TestUnsyncedSegmentsAcrossASync(t *testing.T) {
	open := func(t *testing.T) (*Log, gateModel) {
		model := gateModel{newGate()}
		l, err := OpenSet(t.TempDir()+"/proc.log", model, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l, model
	}
	syncAsync := func(l *Log) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := l.SyncAll()
			done <- err
		}()
		return done
	}
	listed := func(l *Log) int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.unsynced)
	}

	t.Run("grew", func(t *testing.T) {
		l, model := open(t)
		if _, err := l.Append(1, []byte("covered")); err != nil {
			t.Fatal(err)
		}
		covered := l.End()
		done := syncAsync(l)
		model.awaitEntered(t, "the device sync")
		late, err := l.Append(1, []byte("flushed mid-sync"))
		if err == nil {
			err = l.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		close(model.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := l.SyncedLSN(); got != covered {
			t.Errorf("SyncedLSN = %v, want %v: the sync covered its own flush only", got, covered)
		}
		if n := listed(l); n != 1 {
			t.Errorf("%d unsynced segments after the segment grew mid-sync, want it still listed", n)
		}
		if out, err := l.SyncTo(late); err != nil || out != SyncIssued {
			t.Errorf("SyncTo(late record) = %v, %v; want a second device sync", out, err)
		}
		if n := listed(l); n != 0 {
			t.Errorf("%d unsynced segments after the second sync, want 0", n)
		}
	})

	t.Run("trimmed", func(t *testing.T) {
		l, model := open(t)
		l.SetSegmentBytes(64)
		payload := make([]byte, 40)
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
		second, err := l.Append(1, payload) // rolls: the first segment is flushed, not synced
		if err != nil {
			t.Fatal(err)
		}
		dead, err := os.Open(segPaths(t, l)[0])
		if err != nil {
			t.Fatal(err)
		}
		dead.Close()
		l.mu.Lock()
		l.segs[0].f.Close()
		l.segs[0].f = dead // its sync will fail
		l.mu.Unlock()

		done := syncAsync(l)
		model.awaitEntered(t, "the device sync")
		if err := l.TrimHead(second); err != nil {
			t.Fatal(err)
		}
		close(model.release)
		if err := <-done; err != nil {
			t.Fatalf("sync over a segment trimmed mid-sync: %v", err)
		}
		if n := listed(l); n != 0 {
			t.Errorf("%d unsynced segments, want 0: one trimmed, one synced", n)
		}
		if got := l.SyncedLSN(); got != l.End() {
			t.Errorf("SyncedLSN = %v, want the log end %v", got, l.End())
		}
		if _, err := l.Append(1, payload); err != nil {
			t.Errorf("Append after the sync: %v (a trimmed segment's failed sync must not stop the log)", err)
		}
	})
}
