package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ids"
)

// TestScanFromMatchesScan: a cursor visits exactly the records Scan
// visits, from any starting position.
func TestScanFromMatchesScan(t *testing.T) {
	l, err := Open(t.TempDir(), nil)
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

	for _, from := range []ids.LSN{ids.NilLSN, lsns[0], lsns[10], lsns[49]} {
		var want []Record
		if err := l.Scan(from, func(r Record) error {
			r.Payload = append([]byte(nil), r.Payload...) // payload is scan-owned
			want = append(want, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		cur, err := l.ScanFrom(from)
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		for {
			rec, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rec.Payload = append([]byte(nil), rec.Payload...) // payload is cursor-owned
			got = append(got, rec)
		}
		if len(got) != len(want) {
			t.Fatalf("from %v: cursor saw %d records, Scan saw %d", from, len(got), len(want))
		}
		for i := range got {
			if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type ||
				string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("from %v: record %d differs: %+v vs %+v", from, i, got[i], want[i])
			}
		}
	}
}

// TestScanFromConcurrentCursors: many cursors iterate the same log
// concurrently, each seeing the full record sequence (run under -race).
func TestScanFromConcurrentCursors(t *testing.T) {
	l, err := Open(t.TempDir(), nil)
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
	l, err := Open(t.TempDir(), nil)
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

// TestReadAtMatchesScan: the positioned read returns, for every
// {LSN, length} a Scan reported, the record the Scan saw — across
// segment boundaries, through one reused buffer — and refuses an index
// entry that does not describe a record.
func TestReadAtMatchesScan(t *testing.T) {
	l, err := Open(t.TempDir(), nil)
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
	var buf []byte
	for _, w := range want {
		var got Record
		got, buf, err = l.ReadAt(w.LSN, len(w.Payload), buf)
		if err != nil {
			t.Fatalf("ReadAt(%v, %d): %v", w.LSN, len(w.Payload), err)
		}
		if got.LSN != w.LSN || got.Type != w.Type || string(got.Payload) != string(w.Payload) {
			t.Errorf("ReadAt(%v) = %+v, Scan saw %+v", w.LSN, got, w)
		}
	}
	last := want[len(want)-1]
	if _, _, err := l.ReadAt(last.LSN, len(last.Payload)+1, buf); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadAt past the end of the log: %v, want ErrNotFound", err)
	}
	if _, _, err := l.ReadAt(want[0].LSN, len(want[0].Payload)+1, buf); err == nil {
		t.Error("ReadAt accepted a length that is not the record's")
	}
	if _, _, err := l.ReadAt(want[0].LSN+1, len(want[0].Payload), buf); err == nil {
		t.Error("ReadAt accepted an LSN inside a record")
	}
}
