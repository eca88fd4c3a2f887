package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ids"
)

// TestScanFromVisitsAppendedRecords: from any starting position, a
// cursor — and Scan, the same cursor driven by a callback — visits
// exactly the records appended from there on, and between records the
// cursor sits at the next record's LSN.
func TestScanFromVisitsAppendedRecords(t *testing.T) {
	l, err := OpenSet(t.TempDir(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetSegmentBytes(256) // force several segments

	var lsns []ids.LSN
	for i := 0; i < 50; i++ {
		lsn, err := l.Append(RecordType(i%7), []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	check := func(from ids.LSN, first, i int, rec Record) {
		t.Helper()
		if n := first + i; n >= len(lsns) || rec.LSN != lsns[n] || rec.Type != RecordType(n%7) ||
			string(rec.Payload) != fmt.Sprintf("payload-%d", n) {
			t.Fatalf("from %v: record %d is %+v, want append %d", from, i, rec, n)
		}
	}
	for _, first := range []int{0, 10, 49} {
		from := lsns[first]
		if first == 0 {
			from = ids.NilLSN
		}
		cur, err := l.ScanFrom(from)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for {
			at := cur.LSN()
			rec, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if at != rec.LSN {
				t.Fatalf("from %v: cursor at %v returned the record at %v", from, at, rec.LSN)
			}
			check(from, first, seen, rec)
			seen++
		}
		if seen != len(lsns)-first {
			t.Fatalf("from %v: cursor saw %d records, want %d", from, seen, len(lsns)-first)
		}
		scanned := 0
		if err := l.Scan(from, func(rec Record) error {
			check(from, first, scanned, rec)
			scanned++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if scanned != seen {
			t.Fatalf("from %v: Scan saw %d records, cursor %d", from, scanned, seen)
		}
	}
}

// TestScanFromConcurrentCursors: many cursors iterate the same log
// concurrently, each seeing the full record sequence (run under -race).
func TestScanFromConcurrentCursors(t *testing.T) {
	l, err := OpenSet(t.TempDir(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetSegmentBytes(512)

	const records = 200
	for i := 0; i < records; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("r%04d", i))); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := l.ScanFrom(ids.NilLSN)
			if err != nil {
				errs <- err
				return
			}
			n := 0
			for {
				rec, ok, err := cur.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					break
				}
				if want := fmt.Sprintf("r%04d", n); string(rec.Payload) != want {
					errs <- fmt.Errorf("record %d: got %q, want %q", n, rec.Payload, want)
					return
				}
				n++
			}
			if n != records {
				errs <- fmt.Errorf("saw %d records, want %d", n, records)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScanFromBoundedView: records appended after ScanFrom are not
// visited — the cursor's view is the log end at creation time.
func TestScanFromBoundedView(t *testing.T) {
	l, err := OpenSet(t.TempDir(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte("early")); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := l.ScanFrom(ids.NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for {
		rec, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if string(rec.Payload) != "early" {
			t.Fatalf("cursor leaked a late record: %q", rec.Payload)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("cursor saw %d records, want 5", n)
	}
}

// TestReadAtMatchesScan: the positioned read returns, for every LSN a
// Scan reported, the record the Scan saw — across segment boundaries,
// through one reader, forwards and backwards — and refuses an LSN that
// is not a record's.
func TestReadAtMatchesScan(t *testing.T) {
	l, err := OpenSet(t.TempDir(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetSegmentBytes(256) // force several segments
	for i := 0; i < 50; i++ {
		if _, err := l.Append(RecordType(i%7), []byte(fmt.Sprintf("payload-%0*d", i%9, i))); err != nil {
			t.Fatal(err)
		}
	}
	var want []Record
	if err := l.Scan(ids.NilLSN, func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...) // payload is scan-owned
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{0, 64, readBlock} {
		rd := readerOn(l, block)
		check := func(w Record) {
			t.Helper()
			got, err := rd.ReadAt(w.LSN)
			if err != nil {
				t.Fatalf("block %d: ReadAt(%v): %v", block, w.LSN, err)
			}
			if got.LSN != w.LSN || got.Type != w.Type || string(got.Payload) != string(w.Payload) {
				t.Errorf("block %d: ReadAt(%v) = %+v, Scan saw %+v", block, w.LSN, got, w)
			}
		}
		for _, w := range want {
			check(w)
		}
		for i := len(want) - 1; i >= 0; i -= 3 {
			check(want[i])
		}
		if _, err := rd.ReadAt(l.End()); !errors.Is(err, ErrNotFound) {
			t.Errorf("block %d: ReadAt past the end of the log: %v, want ErrNotFound", block, err)
		}
		if _, err := rd.ReadAt(want[0].LSN + 1); err == nil {
			t.Errorf("block %d: ReadAt accepted an LSN inside a record", block)
		}
	}
}
