package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/ids"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "proc.log")
	l, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, dir
}

// segPaths lists the log's segment files, oldest first (the names are
// zero-padded start LSNs, so Glob's lexical order is LSN order).
func segPaths(t *testing.T, l *Log) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(l.dir, "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s (%v)", l.dir, err)
	}
	return paths
}

// activeSegPath returns the tail segment file for direct manipulation.
func activeSegPath(t *testing.T, l *Log) string {
	t.Helper()
	paths := segPaths(t, l)
	return paths[len(paths)-1]
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	lsn, err := l.Append(RecordType(3), []byte("hello phoenix"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	rec, err := l.Read(lsn)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if rec.Type != RecordType(3) || string(rec.Payload) != "hello phoenix" {
		t.Errorf("got %v %q", rec.Type, rec.Payload)
	}
	if rec.LSN != lsn {
		t.Errorf("LSN = %v, want %v", rec.LSN, lsn)
	}
}

func TestLSNsAreMonotonic(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	var prev ids.LSN
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(1, bytes.Repeat([]byte("x"), i))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn <= prev {
			t.Fatalf("LSN %v not > previous %v", lsn, prev)
		}
		prev = lsn
	}
}

func TestForcedRecordsSurviveReopen(t *testing.T) {
	l, path := openTemp(t)
	var lsns []ids.LSN
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(RecordType(i%4+1), []byte{byte(i)})
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		lsns = append(lsns, lsn)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatalf("Force: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	for i, lsn := range lsns {
		rec, err := l2.Read(lsn)
		if err != nil {
			t.Fatalf("Read(%v): %v", lsn, err)
		}
		if len(rec.Payload) != 1 || rec.Payload[0] != byte(i) {
			t.Errorf("record %d payload = %v", i, rec.Payload)
		}
	}
}

func TestUnforcedRecordsLostOnDiscard(t *testing.T) {
	l, path := openTemp(t)
	forced, err := l.Append(1, []byte("survives"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	lost, err := l.Append(1, []byte("lost"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}
	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if _, err := l2.Read(forced); err != nil {
		t.Errorf("forced record lost: %v", err)
	}
	if _, err := l2.Read(lost); err == nil {
		t.Error("unforced record survived Discard")
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	l, path := openTemp(t)
	good, err := l.Append(1, []byte("good"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegPath(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage that is not a valid record.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x13, 0x37, 0x42}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if _, err := l2.Read(good); err != nil {
		t.Errorf("good record lost: %v", err)
	}
	// New appends must land where the torn tail was truncated.
	lsn, err := l2.Append(2, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := l2.Read(lsn)
	if err != nil || string(rec.Payload) != "after" {
		t.Errorf("post-truncation append unreadable: %v %v", rec, err)
	}
}

func TestCorruptRecordStopsScanAtOpen(t *testing.T) {
	l, path := openTemp(t)
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	second, err := l.Append(1, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegPath(t, l)
	l.Close()
	// Flip a byte inside the second record's payload. In the first
	// segment (start LSN 16, 16-byte header) the file offset of a
	// record equals its LSN.
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, int64(second)+frameMin); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.End() != second {
		t.Errorf("End = %v, want truncation at %v", l2.End(), second)
	}
}

// TestTailCheckRaces: everything that can settle a reopened log's end
// races over a torn tail — scans from below the stable watermark, and
// the appends and End that run the check from it when no scan has. The
// tail is cut once, at the tear; every append lands behind the cut;
// nothing in front of it is lost. (A scan that began before the cut may
// also see records appended behind it before it got there.)
func TestTailCheckRaces(t *testing.T) {
	for round := 0; round < 10; round++ {
		l, dir := openTemp(t)
		lsns := appendAll(t, l, numbered(200, 40)...)
		if _, err := l.SyncAll(); err != nil {
			t.Fatal(err)
		}
		seg := activeSegPath(t, l)
		l.Close()
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-3); err != nil { // the last record torn
			t.Fatal(err)
		}
		if err := saveRoot(dir, root{stable: lsns[100]}); err != nil {
			t.Fatal(err)
		}
		if l, err = OpenSet(dir, nil, 1); err != nil {
			t.Fatal(err)
		}
		cut := lsns[199]
		var wg sync.WaitGroup
		var mu sync.Mutex
		var appended []ids.LSN
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					n := 0
					if err := l.Scan(lsns[50], func(Record) error { n++; return nil }); err != nil || n < 149 {
						t.Errorf("scan from below the watermark: %d records, %v; want the 149 in front of the tear", n, err)
					}
				case 1:
					lsn, err := l.Append(1, []byte("appended in the race"))
					if err != nil || lsn < cut {
						t.Errorf("append at %v, %v; want it at or behind the cut %v", lsn, err, cut)
					}
					mu.Lock()
					appended = append(appended, lsn)
					mu.Unlock()
				case 2:
					if end := l.End(); end < cut {
						t.Errorf("End = %v, in front of the cut %v", end, cut)
					}
				}
			}(g)
		}
		wg.Wait()
		slices.Sort(appended)
		if len(appended) != 2 || appended[0] != cut {
			t.Fatalf("appends landed at %v, want the first at the cut %v", appended, cut)
		}
		want, payloads := append(slices.Clone(lsns[:199]), appended...), numbered(199, 40)
		for range appended {
			payloads = append(payloads, []byte("appended in the race"))
		}
		if n, err := drain(t, scanBlock(t, l, ids.NilLSN, readBlock), want, payloads); n != len(want) || err != nil {
			t.Errorf("after the race the log scans %d records, %v; want the 199 in front of the tear and the %d appended", n, err, len(appended))
		}
		l.Close()
	}
}

func TestScanOrderAndStop(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := l.Append(RecordType(1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	err := l.Scan(ids.NilLSN, func(r Record) error {
		seen = append(seen, r.Payload[0])
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(seen) != n {
		t.Fatalf("scanned %d records, want %d", len(seen), n)
	}
	for i, b := range seen {
		if b != byte(i) {
			t.Fatalf("out of order at %d: %d", i, b)
		}
	}
	// Early stop via ErrStopScan.
	count := 0
	err = l.Scan(ids.NilLSN, func(r Record) error {
		count++
		if count == 5 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || count != 5 {
		t.Errorf("early stop: err=%v count=%d", err, count)
	}
}

func TestScanFromMiddle(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	var lsns []ids.LSN
	for i := 0; i < 10; i++ {
		lsn, _ := l.Append(1, []byte{byte(i)})
		lsns = append(lsns, lsn)
	}
	var seen []byte
	if err := l.Scan(lsns[6], func(r Record) error {
		seen = append(seen, r.Payload[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || seen[0] != 6 {
		t.Errorf("scan from middle = %v", seen)
	}
}

func TestForceOnCleanLogIsFree(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1 (clean forces are free)", got)
	}
}

func TestFlushMakesReadableWithoutForce(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	lsn, _ := l.Append(1, []byte("buffered"))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Read(lsn)
	if err != nil || string(rec.Payload) != "buffered" {
		t.Errorf("read after flush: %v %v", rec, err)
	}
	if got := l.Stats().Forces; got != 0 {
		t.Errorf("Flush must not count as force, got %d", got)
	}
}

func TestFlushThenForceStillSyncs(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Forces; got != 1 {
		t.Errorf("Forces = %d, want 1 (flushed data still needs the sync)", got)
	}
}

func TestStatsCounting(t *testing.T) {
	model := disk.NewSimDisk(disk.DefaultParams(), disk.NewVirtualClock())
	path := filepath.Join(t.TempDir(), "p.log")
	l, err := OpenSet(path, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.SyncAll(); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Appends != 3 || s.Forces != 3 || s.PhysicalWrites != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesWritten < 3*int64(len("payload")) {
		t.Errorf("BytesWritten = %d too small", s.BytesWritten)
	}
	w, syncs, _ := model.Stats()
	if w != 3 || syncs != 3 {
		t.Errorf("device saw %d writes %d syncs, want 3/3", w, syncs)
	}
	l.ResetStats()
	if got := l.Stats(); got.Appends != 0 || got.Forces != 0 || got.PhysicalWrites != 0 {
		t.Errorf("ResetStats did not zero: %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if _, err := l.Read(ids.LSN(9999)); err == nil {
		t.Error("Read past end succeeded")
	}
	if _, err := l.Read(ids.LSN(1)); err == nil {
		t.Error("Read inside header succeeded")
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, _ := openTemp(t)
	l.Close()
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Errorf("Append after close: %v", err)
	}
	if _, err := l.SyncAll(); err != ErrClosed {
		t.Errorf("Force after close: %v", err)
	}
	if _, err := l.Read(ids.LSN(16)); err != ErrClosed {
		t.Errorf("Read after close: %v", err)
	}
	if err := l.Scan(ids.NilLSN, nil); err != ErrClosed {
		t.Errorf("Scan after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bad.log")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(16)),
		[]byte("NOTALOGFILE------"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, nil, 1); err == nil {
		t.Error("Open accepted a bad segment header")
	}
}

func TestStraySegmentNameRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bad.log")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hello.seg"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, nil, 1); err == nil {
		t.Error("Open accepted a stray segment name")
	}
}

func TestLargeBufferAutoFlush(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	big := bytes.Repeat([]byte("z"), maxBuffered/2+1)
	if _, err := l.Append(1, big); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, big); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().PhysicalWrites; got == 0 {
		t.Error("full buffer did not auto-flush")
	}
	if got := l.Stats().Forces; got != 0 {
		t.Error("auto-flush must not sync")
	}
}

// TestAppendScanProperty: any sequence of appended payloads is returned
// by a full scan, in order, byte-for-byte.
func TestAppendScanProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		path := filepath.Join(t.TempDir(), "q.log")
		l, err := OpenSet(path, nil, 1)
		if err != nil {
			return false
		}
		defer l.Close()
		for _, p := range payloads {
			if _, err := l.Append(2, p); err != nil {
				return false
			}
		}
		var got [][]byte
		if err := l.Scan(ids.NilLSN, func(r Record) error {
			cp := make([]byte, len(r.Payload))
			copy(cp, r.Payload)
			got = append(got, cp)
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReopenIdempotent: reopening a cleanly forced log any number of
// times neither loses nor duplicates records.
func TestReopenIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	l, err := OpenSet(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for round := 0; round < 3; round++ {
		l, err := OpenSet(path, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := l.Scan(ids.NilLSN, func(r Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("round %d: %d records, want 5", round, n)
		}
		l.Close()
	}
}
