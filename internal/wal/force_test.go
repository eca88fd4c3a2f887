package wal

import (
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
