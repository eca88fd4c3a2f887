package wal

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/ids"
)

// fillSegments appends records until the log has rolled to at least
// nSegs segments, returning all LSNs.
func fillSegments(t *testing.T, l *Log, nSegs int) []ids.LSN {
	t.Helper()
	payload := bytes.Repeat([]byte("r"), 100)
	var lsns []ids.LSN
	for i := 0; l.Stats().Segments < nSegs; i++ {
		lsn, err := l.Append(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if i%10 == 0 {
			if err := l.Flush(); err != nil { // rolling happens at flush
				t.Fatal(err)
			}
		}
		if i > 100000 {
			t.Fatal("log never rolled; SetSegmentBytes broken?")
		}
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

func TestSegmentRollingPreservesRecords(t *testing.T) {
	l, dir := openTemp(t)
	l.SetSegmentBytes(1024)
	lsns := fillSegments(t, l, 4)
	if got := l.Stats().Segments; got < 4 {
		t.Fatalf("segments = %d, want >= 4", got)
	}
	// Every record is readable across segment boundaries.
	for i, lsn := range lsns {
		rec, err := l.Read(lsn)
		if err != nil {
			t.Fatalf("Read(%v) [%d]: %v", lsn, i, err)
		}
		if len(rec.Payload) != 100 {
			t.Fatalf("record %d payload length %d", i, len(rec.Payload))
		}
	}
	// A scan sees them all, in order.
	var seen int
	if err := l.Scan(ids.NilLSN, func(r Record) error {
		if r.LSN != lsns[seen] {
			t.Fatalf("scan order: got %v, want %v", r.LSN, lsns[seen])
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(lsns) {
		t.Fatalf("scanned %d, want %d", seen, len(lsns))
	}
	l.Close()

	// Reopen: same records, same segment layout.
	l2, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, lsn := range lsns {
		if _, err := l2.Read(lsn); err != nil {
			t.Fatalf("after reopen Read(%v): %v", lsn, err)
		}
	}
}

func TestTrimHeadDeletesDeadSegments(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.SetSegmentBytes(1024)
	lsns := fillSegments(t, l, 5)
	before := l.Stats().Segments

	keep := lsns[len(lsns)/2]
	if err := l.TrimHead(keep); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Segments >= before {
		t.Errorf("segments %d -> %d; nothing trimmed", before, after.Segments)
	}
	if after.TrimmedBytes == 0 {
		t.Error("TrimmedBytes not accounted")
	}
	// Everything at or after keep is still readable.
	for _, lsn := range lsns {
		_, err := l.Read(lsn)
		if lsn >= keep && err != nil {
			t.Errorf("kept record %v unreadable: %v", lsn, err)
		}
	}
	// Start moved forward; scans start there.
	if l.Start() > keep {
		t.Errorf("Start %v is past keep %v", l.Start(), keep)
	}
	count := 0
	if err := l.Scan(ids.NilLSN, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count == 0 || count == len(lsns) {
		t.Errorf("scan after trim saw %d of %d", count, len(lsns))
	}
}

func TestTrimHeadNeverRemovesActiveSegment(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	lsn, _ := l.Append(1, []byte("x"))
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := l.TrimHead(l.End()); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Errorf("segments = %d, want the active one", got)
	}
	if _, err := l.Read(lsn); err != nil {
		t.Errorf("record lost by no-op trim: %v", err)
	}
}

func TestTrimSurvivesReopen(t *testing.T) {
	l, dir := openTemp(t)
	l.SetSegmentBytes(1024)
	lsns := fillSegments(t, l, 4)
	keep := lsns[len(lsns)-3]
	if err := l.TrimHead(keep); err != nil {
		t.Fatal(err)
	}
	start := l.Start()
	l.Close()

	l2, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatalf("reopen after trim: %v", err)
	}
	defer l2.Close()
	if l2.Start() != start {
		t.Errorf("Start after reopen = %v, want %v", l2.Start(), start)
	}
	if _, err := l2.Read(lsns[len(lsns)-1]); err != nil {
		t.Errorf("tail record unreadable after trim+reopen: %v", err)
	}
	if _, err := l2.Read(lsns[0]); err == nil {
		t.Error("trimmed record still readable after reopen")
	}
}

func TestSegmentGapRejected(t *testing.T) {
	l, dir := openTemp(t)
	l.SetSegmentBytes(512)
	fillSegments(t, l, 4)
	paths := segPaths(t, l)
	l.Close()
	// Delete a middle segment: the gap must be detected at open.
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, nil, 1); err == nil {
		t.Error("Open accepted a log with a missing middle segment")
	}
}

func TestDiscardRemovesUnsyncedSegments(t *testing.T) {
	l, dir := openTemp(t)
	l.SetSegmentBytes(256)
	forced, err := l.Append(1, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	// Push unforced data across several new segments.
	big := bytes.Repeat([]byte("z"), 200)
	for i := 0; i < 6; i++ {
		if _, err := l.Append(1, big); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}
	l2, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatalf("reopen after discard: %v", err)
	}
	defer l2.Close()
	if _, err := l2.Read(forced); err != nil {
		t.Errorf("forced record lost: %v", err)
	}
	n := 0
	if err := l2.Scan(ids.NilLSN, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("records after discard = %d, want 1 (only the forced one)", n)
	}
	// New appends continue from the synced watermark.
	lsn, err := l2.Append(1, []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := l2.Read(lsn); err != nil || string(rec.Payload) != "fresh" {
		t.Errorf("append after discard: %v %v", rec, err)
	}
}
