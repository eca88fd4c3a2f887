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
	if h := snap.HistogramFor(obs.WALForceMicros); h.Count != 1 {
		t.Errorf("wal.force_micros count = %d, want 1", h.Count)
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
	if _, err := l.AppendInto(0, 1, EncodeFunc(func(dst []byte) ([]byte, error) { return dst, nil })); err != syncErr {
		t.Errorf("AppendInto after the failed sync = %v, want the first error again", err)
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
	l2, err := Open(path, nil)
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
