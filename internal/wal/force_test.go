package wal

import (
	"errors"
	"os"
	"testing"

	"repro/internal/disk"
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
// device fails the active segment's next sync, once, and then answers
// every later one with success — the kernel that does so after
// dropping the dirty pages. The log must not fall for it: the first
// error sticks to every later force and append, the watermark stays
// where the last good sync left it, and a crash keeps the record whose
// sync failed only if the device does: a process death, which keeps
// every byte written, does; a power cut does not.
func TestFailedSyncStopsTheLog(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { failedSyncStopsTheLog(t, v.powerCut) })
	}
}

func failedSyncStopsTheLog(t *testing.T, powerCut bool) {
	d := &faultDev{powerCut: powerCut}
	l, path := openDev(t, d)
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

	d.fail("File.Sync", 1)
	_, syncErr := l.SyncTo(lost)
	if !errors.Is(syncErr, errFault) {
		t.Fatalf("SyncTo over a failing sync = %v, want the device error", syncErr)
	}

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

	l.Discard()
	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Read(good); err != nil {
		t.Errorf("record below the watermark lost: %v", err)
	}
	if _, err := l2.Read(lost); (err == nil) == powerCut {
		t.Errorf("the record whose sync failed reads back with %v after the crash, power cut %v", err, powerCut)
	}
}

// TestUnsyncedSegmentsAcrossASync drives the ways the active file can
// change under a leader whose device sync is in flight (the mutex is
// released there), on top of the failed-sync case above: it grows, and
// the watermark stops at what the flush covered; a roll seals it, and
// the leader's sync neither fails nor leaks the file; a roll in the
// commit window, before the leader took a file, closes the sealed one
// itself and the leader syncs the new one.
func TestUnsyncedSegmentsAcrossASync(t *testing.T) {
	open := func(t *testing.T, model disk.Model, clock disk.Clock) *Log {
		l, _, _ := windowLog(t, model, clock)
		t.Cleanup(func() { l.Close() })
		return l
	}
	syncAsync := func(l *Log) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := l.SyncAll()
			done <- err
		}()
		return done
	}
	activeFile := func(l *Log) disk.File {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.f
	}
	closed := func(t *testing.T, f disk.File, what string) {
		t.Helper()
		if err := f.Sync(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s: the sealed file is open (sync: %v)", what, err)
		}
	}

	t.Run("grew", func(t *testing.T) {
		model := gateModel{newGate()}
		l := open(t, model, nil)
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
		if out, err := l.SyncTo(late); err != nil || out != SyncIssued {
			t.Errorf("SyncTo(late record) = %v, %v; want a second device sync", out, err)
		}
	})

	t.Run("sealed", func(t *testing.T) {
		model := gateModel{newGate()}
		l := open(t, model, nil)
		l.SetSegmentBytes(64)
		payload := make([]byte, 40)
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
		leaders := activeFile(l)
		done := syncAsync(l)
		model.awaitEntered(t, "the device sync")
		second, err := l.Append(1, payload) // rolls: seals the file the leader is about to sync
		if err != nil {
			t.Fatal(err)
		}
		if got := l.SyncedLSN(); got != second {
			t.Errorf("SyncedLSN = %v after the roll, want the sealed segment's end %v", got, second)
		}
		close(model.release)
		if err := <-done; err != nil {
			t.Fatalf("sync over a file sealed mid-sync: %v", err)
		}
		closed(t, leaders, "after the leader's sync")
		if got := l.SyncedLSN(); got != second {
			t.Errorf("SyncedLSN = %v after the leader's sync, want it left at %v", got, second)
		}
		if out, err := l.SyncTo(second); err != nil || out != SyncIssued {
			t.Errorf("SyncTo(record in the new segment) = %v, %v; want a device sync", out, err)
		}
	})

	t.Run("window", func(t *testing.T) {
		clock := gateClock{disk.NewRealClock(1), newGate()}
		l := open(t, nil, clock)
		l.SetSegmentBytes(64)
		payload := make([]byte, 40)
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
		sealed := activeFile(l)
		done := syncAsync(l)
		clock.awaitEntered(t, "the commit window")
		second, err := l.Append(1, payload) // rolls before the leader took a file
		if err != nil {
			t.Fatal(err)
		}
		closed(t, sealed, "after the roll")
		close(clock.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := l.SyncedLSN(); got != l.End() {
			t.Errorf("SyncedLSN = %v, want the log end %v: the leader synced the new segment", got, l.End())
		}
		if _, err := l.Read(second); err != nil {
			t.Error(err)
		}
	})
}
