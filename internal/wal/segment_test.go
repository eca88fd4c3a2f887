package wal

import (
	"bytes"
	"errors"
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

// TestTrimHeadEdgeCases: the segments a trim removes leave the log one
// by one, as their files go. Six 256-byte segments; each row disturbs
// the directory or the device, trims up to the fifth segment and checks
// that the log names exactly the segments still on disk — Start, the
// segment count, TrimmedBytes — and that a later trim resumes where the
// first stopped.
func TestTrimHeadEdgeCases(t *testing.T) {
	run := func(name string, fn func(t *testing.T, d *faultDev, l *Log, paths []string, starts []ids.LSN)) {
		t.Run(name, func(t *testing.T) {
			d := &faultDev{}
			l, _ := openDev(t, d)
			defer l.Close()
			l.SetSegmentBytes(256)
			fillSegments(t, l, 6)
			var starts []ids.LSN
			for _, s := range l.segs {
				starts = append(starts, s.start)
			}
			fn(t, d, l, segPaths(t, l), starts)
		})
	}
	// expect checks the log starts at want with n segments, and that
	// every segment file before want is gone.
	expect := func(t *testing.T, l *Log, paths []string, starts []ids.LSN, want ids.LSN, n int) {
		t.Helper()
		if got, segs := l.Start(), l.Stats().Segments; got != want || segs != n {
			t.Errorf("log starts at %v with %d segments, want %v with %d", got, segs, want, n)
		}
		for i, path := range paths {
			if _, err := os.Stat(path); (err == nil) != (starts[i] >= want) {
				t.Errorf("segment %v on disk: %v, want %v", starts[i], err == nil, starts[i] >= want)
			}
		}
	}

	run("a failed remove resumes", func(t *testing.T, d *faultDev, l *Log, paths []string, starts []ids.LSN) {
		// The second segment's remove fails; the first goes before it.
		d.fail("Remove", 2)
		if err := l.TrimHead(starts[4]); !errors.Is(err, errFault) {
			t.Fatalf("a trim through a segment it cannot remove = %v, want the fault", err)
		}
		if got := l.Stats().TrimmedBytes; got != int64(starts[1]-starts[0]) {
			t.Errorf("TrimmedBytes %d after one segment went, want %d", got, starts[1]-starts[0])
		}
		if l.Start() != starts[1] || l.Stats().Segments != len(starts)-1 {
			t.Errorf("after the failed trim the log starts at %v with %d segments, want %v with %d",
				l.Start(), l.Stats().Segments, starts[1], len(starts)-1)
		}
		if err := l.TrimHead(starts[4]); err != nil {
			t.Fatalf("the retried trim: %v", err)
		}
		expect(t, l, paths, starts, starts[4], 2)
		if got := l.Stats().TrimmedBytes; got != int64(starts[4]-starts[0]) {
			t.Errorf("TrimmedBytes %d, want %d", got, starts[4]-starts[0])
		}
	})
	run("a segment already gone counts as removed", func(t *testing.T, _ *faultDev, l *Log, paths []string, starts []ids.LSN) {
		if err := os.Remove(paths[2]); err != nil {
			t.Fatal(err)
		}
		if err := l.TrimHead(starts[4]); err != nil {
			t.Fatal(err)
		}
		expect(t, l, paths, starts, starts[4], 2)
	})
	run("a trim short of a segment's end keeps it", func(t *testing.T, _ *faultDev, l *Log, paths []string, starts []ids.LSN) {
		if err := l.TrimHead(starts[4] - 1); err != nil {
			t.Fatal(err)
		}
		expect(t, l, paths, starts, starts[3], 3)
	})
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

// TestDiscardKeepsSealedSegments: a roll seals the segment it leaves —
// its records are durable though no force asked for them — so even a
// power cut keeps every sealed segment and cuts only the active file
// back to the watermark.
func TestDiscardKeepsSealedSegments(t *testing.T) {
	l, dir := openDev(t, &faultDev{powerCut: true})
	l.SetSegmentBytes(256)
	forced, err := l.Append(1, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	// Push unforced records across several new segments: each takes
	// one, the first shares the forced record's.
	big := bytes.Repeat([]byte("z"), 200)
	var sealed []ids.LSN
	for i := 0; i < 6; i++ {
		lsn, err := l.Append(1, big)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, lsn)
	}
	active := sealed[len(sealed)-1] // flushed, never synced
	sealed = sealed[:len(sealed)-1]
	if got := l.SyncedLSN(); got != active {
		t.Errorf("SyncedLSN = %v, want the active segment's start %v", got, active)
	}
	l.Discard()
	l2, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatalf("reopen after discard: %v", err)
	}
	defer l2.Close()
	for _, lsn := range append([]ids.LSN{forced}, sealed...) {
		if _, err := l2.Read(lsn); err != nil {
			t.Errorf("record at %v lost: %v", lsn, err)
		}
	}
	n := 0
	if err := l2.Scan(ids.NilLSN, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(sealed); n != want {
		t.Errorf("records after discard = %d, want %d (the forced one and the sealed ones)", n, want)
	}
	// New appends continue from the synced watermark.
	lsn, err := l2.Append(1, []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != active {
		t.Errorf("append after discard at %v, want the watermark %v", lsn, active)
	}
	if rec, err := l2.Read(lsn); err != nil || string(rec.Payload) != "fresh" {
		t.Errorf("append after discard: %v %v", rec, err)
	}
}

// TestPowerCutAfterRoll: a power cut keeps what a sync covered and may
// lose everything else — here the device cuts each segment file back to
// its length at its last sync, so the segment the log rolled past keeps
// what its seal synced and its successor keeps its header. The log
// reopens and reads every record below the watermark, every forced one
// among them.
func TestPowerCutAfterRoll(t *testing.T) {
	l, dir := openDev(t, &faultDev{powerCut: true})
	l.SetSegmentBytes(256)
	forced, err := l.Append(1, []byte("forced"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncTo(forced); err != nil {
		t.Fatal(err)
	}
	lsns := []ids.LSN{forced}
	for l.Stats().Segments < 2 {
		lsn, err := l.Append(1, bytes.Repeat([]byte("u"), 100))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	synced := l.SyncedLSN()
	if err := l.Close(); err != nil { // the page cache held the rest
		t.Fatal(err)
	}

	l2, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatalf("reopen after a power cut behind a roll: %v", err)
	}
	defer l2.Close()
	kept := 0
	for _, lsn := range lsns {
		if lsn >= synced {
			break
		}
		if _, err := l2.Read(lsn); err != nil {
			t.Errorf("record at %v, below the watermark %v, lost: %v", lsn, synced, err)
		}
		kept++
	}
	if kept < len(lsns)-1 {
		t.Errorf("%d of %d records below the watermark %v, want all but the one in the new segment", kept, len(lsns), synced)
	}
}

// TestRolledSegmentsHoldNoFile: a log that rolls to a thousand segments
// and is never trimmed holds one open file, whatever segment a read
// lands in; the device counts the files it has open. The claim is about
// files, not durability, so the device skips the host's fsyncs: three
// per roll (seal, header, directory).
func TestRolledSegmentsHoldNoFile(t *testing.T) {
	d := &faultDev{noSync: true}
	l, _ := openDev(t, d)
	defer l.Close()
	l.SetSegmentBytes(64)
	payload := make([]byte, 40)
	var lsns []ids.LSN
	for l.Stats().Segments < 1000 {
		lsn, err := l.Append(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	n := 0
	if err := l.Scan(ids.NilLSN, func(Record) error { n++; return nil }); err != nil || n != len(lsns) {
		t.Fatalf("scan of %d segments: %d of %d records, %v", l.Stats().Segments, n, len(lsns), err)
	}
	if _, err := l.NewReader().ReadAt(lsns[0]); err != nil {
		t.Fatal(err)
	}
	if n := d.openFiles(); n != 1 {
		t.Errorf("%d files open over %d segments, want the active one", n, l.Stats().Segments)
	}
	t.Logf("%d segments: %d fsyncs asked of the device, none issued on the host", l.Stats().Segments, d.syncsAsked())
}
