package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ids"
)

// FuzzOpenTornSegment: arbitrary bytes appended to (or replacing the
// tail of) a valid segment must never panic Open, and the valid prefix
// must survive.
func FuzzOpenTornSegment(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0xff, 0x00, 0x01}, true)
	f.Add([]byte("half a record maybe"), false)
	f.Add(append(binary.AppendUvarint(nil, 1<<63), 0, 0, 0, 0, 0x01, 0, 'x'), false)     // a frame claiming a 2^63-byte payload
	f.Add(make([]byte, 40), false)                                                       // a zero-filled page
	f.Add([]byte{0x82, 0x00, 0x6f, 0x4f, 0xde, 0x91, 0x01, 0x00, 'h', 'i'}, false)       // a non-minimal length, its checksum right
	f.Add([]byte{0x02, 0x82, 0x70, 0xbf, 0x5e, 0x01, 0xc0, 0x84, 0x3d, 'h', 'i'}, false) // a link back past the log's start, its checksum right
	f.Fuzz(func(t *testing.T, tail []byte, clobberLast bool) {
		dir := filepath.Join(t.TempDir(), "f.log")
		l, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		var lsns []ids.LSN
		for i := 0; i < 3; i++ {
			lsn, err := l.Append(RecordType(i+1), []byte{byte(i), byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			lsns = append(lsns, lsn)
		}
		if _, err := l.SyncAll(); err != nil {
			t.Fatal(err)
		}
		seg := activeSegPath(t, l)
		l.Close()

		fh, err := os.OpenFile(seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if clobberLast && len(tail) > 0 {
			fi, _ := fh.Stat()
			off := fi.Size() - int64(len(tail))
			if off < segHeaderSize {
				off = segHeaderSize
			}
			fh.WriteAt(tail, off)
		} else {
			fi, _ := fh.Stat()
			fh.WriteAt(tail, fi.Size())
		}
		fh.Close()

		l2, err := Open(dir, nil)
		if err != nil {
			// Header clobbered: rejection is acceptable, panics are not.
			return
		}
		defer l2.Close()
		// Whatever survived must scan cleanly and in order.
		prev := ids.NilLSN
		if err := l2.Scan(ids.NilLSN, func(r Record) error {
			if r.LSN <= prev {
				t.Fatalf("scan not monotonic at %v", r.LSN)
			}
			prev = r.LSN
			return nil
		}); err != nil {
			t.Fatalf("scan after torn open: %v", err)
		}
		// Appends still work.
		if _, err := l2.Append(1, []byte("post")); err != nil {
			t.Fatalf("append after torn open: %v", err)
		}
	})
}

// FuzzFrameRoundTrip fuzzes the record framing itself: arbitrary
// payloads (including empty, binary, and multi-record mixes) must
// survive append -> force -> reopen -> scan bit-for-bit, through both
// the buffered append path and the encode-into path.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte("a"), uint8(1))
	f.Add([]byte{0xc3, 0x02}, []byte{0x00}, uint8(255))
	f.Add(bytes.Repeat([]byte{0xaa}, 300), []byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, p1, p2 []byte, typ uint8) {
		dir := filepath.Join(t.TempDir(), "f.log")
		l, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		lsn1, err := l.Append(RecordType(typ), p1)
		if err != nil {
			t.Fatal(err)
		}
		lsn2, err := l.AppendLinked(0, RecordType(typ)+1, EncodeFunc(func(dst []byte) ([]byte, error) {
			return append(dst, p2...), nil
		}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.SyncAll(); err != nil {
			t.Fatal(err)
		}
		l.Close()

		l2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		var got []Record
		if err := l2.Scan(ids.NilLSN, func(r Record) error {
			r.Payload = append([]byte(nil), r.Payload...)
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if len(got) != 2 {
			t.Fatalf("scanned %d records, want 2", len(got))
		}
		if got[0].LSN != lsn1 || got[0].Type != RecordType(typ) || !bytes.Equal(got[0].Payload, p1) {
			t.Fatalf("record 1 mismatch: %+v", got[0])
		}
		if got[1].LSN != lsn2 || got[1].Type != RecordType(typ)+1 || !bytes.Equal(got[1].Payload, p2) {
			t.Fatalf("record 2 mismatch: %+v", got[1])
		}
	})
}
