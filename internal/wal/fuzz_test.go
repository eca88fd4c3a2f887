package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
)

// FuzzOpenTornSegment: arbitrary bytes appended to (or replacing the
// tail of) a valid segment, behind a stable watermark at any of its
// record boundaries or none, must never panic the log, and the three
// things that can first learn where the log ends — a scan, an append,
// End — must agree on that end and on the records that survive. With no
// watermark every bad byte is torn tail: what survives scans cleanly and
// takes appends.
func FuzzOpenTornSegment(f *testing.F) {
	f.Add([]byte{}, false, uint8(0))
	f.Add([]byte{0xff, 0x00, 0x01}, true, uint8(0))
	f.Add([]byte("half a record maybe"), false, uint8(0))
	f.Add(append(binary.AppendUvarint(nil, 1<<63), 0, 0, 0, 0, 0x01, 0, 'x'), false, uint8(0))     // a frame claiming a 2^63-byte payload
	f.Add(make([]byte, 40), false, uint8(0))                                                       // a zero-filled page
	f.Add([]byte{0x82, 0x00, 0x6f, 0x4f, 0xde, 0x91, 0x01, 0x00, 'h', 'i'}, false, uint8(0))       // a non-minimal length, its checksum right
	f.Add([]byte{0x02, 0x82, 0x70, 0xbf, 0x5e, 0x01, 0xc0, 0x84, 0x3d, 'h', 'i'}, false, uint8(0)) // a link back past the log's start, its checksum right
	f.Add(bytes.Repeat([]byte{0xff}, 9), true, uint8(2))                                           // the last record torn: a tear exactly at the watermark
	f.Add(bytes.Repeat([]byte{0xff}, 9), true, uint8(1))                                           // the same tear one frame past the watermark
	f.Add([]byte("torn"), false, uint8(3))                                                         // a torn frame right behind a watermark at the end
	f.Fuzz(func(t *testing.T, tail []byte, clobberLast bool, watermark uint8) {
		dir := filepath.Join(t.TempDir(), "f.log")
		l, err := OpenSet(dir, nil, 1)
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
		stable := []ids.LSN{ids.NilLSN, lsns[1], lsns[2], l.End()}[int(watermark)%4]
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
		damaged, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}

		// What a log that learned its end one way or another holds.
		type outcome struct {
			openErr  string
			end      ids.LSN
			records  []Record // from the start to end, once end is known
			badFrame ids.LSN  // where that scan failed (which error it says can hang on bytes past end)
			appendOK bool
		}
		settle := func(first string) (o outcome) {
			d := filepath.Join(t.TempDir(), first)
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, filepath.Base(seg)), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := saveRoot(disk.HostDevice{}, d, root{stable: stable}); err != nil {
				t.Fatal(err)
			}
			l, err := OpenSet(d, nil, 1)
			if err != nil {
				return outcome{openErr: err.Error()}
			}
			defer l.Close()
			post := []byte("post")
			switch first {
			case "scan":
				_ = l.Scan(ids.NilLSN, func(Record) error { return nil })
			case "append":
				lsn, err := l.Append(1, post)
				if o.appendOK = err == nil; o.appendOK {
					o.end = lsn
				}
			} // "end": the End below is the first use
			if o.end.IsNil() {
				o.end = l.End()
			}
			// The scan's view stops at the end found, the record an append
			// put there left out.
			c, err := l.ScanFrom(ids.NilLSN)
			if err != nil {
				t.Fatal(err)
			}
			if c.end.IsNil() {
				c.r.limit = o.end
			}
			for prev := ids.NilLSN; ; {
				r, ok, err := c.Next()
				if err != nil {
					o.badFrame = c.LSN()
				}
				if !ok {
					break
				}
				if r.LSN <= prev {
					t.Fatalf("%s first: scan not monotonic at %v", first, r.LSN)
				}
				prev = r.LSN
				r.Payload = append([]byte(nil), r.Payload...)
				o.records = append(o.records, r)
			}
			if first != "append" {
				_, err := l.Append(1, post)
				o.appendOK = err == nil
			}
			return o
		}
		scanFirst := settle("scan")
		for _, first := range []string{"append", "end"} {
			if o := settle(first); !reflect.DeepEqual(o, scanFirst) {
				t.Fatalf("watermark %v: the log learned its end\nby a scan:  %+v\nby %s first: %+v", stable, scanFirst, first, o)
			}
		}
		if stable.IsNil() && (!scanFirst.badFrame.IsNil() || !scanFirst.appendOK) {
			t.Fatalf("with no watermark, after the torn tail is cut: scan failed at %v, append ok %v", scanFirst.badFrame, scanFirst.appendOK)
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
		l, err := OpenSet(dir, nil, 1)
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

		l2, err := OpenSet(dir, nil, 1)
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
