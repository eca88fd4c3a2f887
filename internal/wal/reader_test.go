package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
)

// appendAll appends one type-1 record per payload, flushes, and returns
// the LSNs.
func appendAll(t testing.TB, l *Log, payloads ...[]byte) []ids.LSN {
	t.Helper()
	lsns := make([]ids.LSN, len(payloads))
	for i, p := range payloads {
		lsn, err := l.Append(1, p)
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

// frameLen is the log space an unlinked record with an n-byte payload
// takes: length, type, a zero distance, the checksum, the payload.
func frameLen(n int) int { return uvarintLen(uint64(n)) + 1 + 1 + 4 + n }

// numbered returns n distinguishable payloads of size bytes each.
func numbered(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return out
}

// readerOn is a positioned reader over l with a read-ahead block of
// block bytes (what Log.NewReader builds with readBlock).
func readerOn(l *Log, block int) *Reader {
	return &Reader{l: l, block: block, limit: noLimit}
}

// scanBlock is ScanFrom with a read-ahead block of block bytes.
func scanBlock(t *testing.T, l *Log, from ids.LSN, block int) *Cursor {
	t.Helper()
	c, err := l.ScanFrom(from)
	if err != nil {
		t.Fatal(err)
	}
	c.r.block = block
	return c
}

// drain drives c to the end of its view or its first error, checking
// that the records come back in append order with their payloads.
func drain(t *testing.T, c *Cursor, lsns []ids.LSN, payloads [][]byte) (int, error) {
	t.Helper()
	for i := 0; ; i++ {
		rec, ok, err := c.Next()
		if err != nil || !ok {
			return i, err
		}
		if i >= len(lsns) || rec.LSN != lsns[i] || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d: got %v (%d bytes), not the record appended there", i, rec.LSN, len(rec.Payload))
		}
	}
}

// clobber overwrites n bytes of the record at lsn, starting off bytes
// into its frame, behind the log's back.
func clobber(t *testing.T, l *Log, lsn ids.LSN, off int64, b []byte) {
	t.Helper()
	l.mu.Lock()
	s := l.findSegment(lsn)
	l.mu.Unlock()
	if s == nil {
		t.Fatalf("no segment holds %v", lsn)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, segHeaderSize+int64(lsn-s.start)+off); err != nil {
		t.Fatal(err)
	}
}

// TestReaderEdgeCases: where a record sits relative to the read-ahead
// block, the segment and the cursor's view changes which device reads
// happen, never what is returned.
func TestReaderEdgeCases(t *testing.T) {
	for _, block := range []int{64, 4 << 10} {
		block := block
		run := func(name string, fn func(t *testing.T, l *Log)) {
			t.Run(fmt.Sprintf("%s/block%d", name, block), func(t *testing.T) {
				l, _ := openTemp(t)
				defer l.Close()
				fn(t, l)
			})
		}
		scanAll := func(t *testing.T, l *Log, lsns []ids.LSN, payloads [][]byte) {
			t.Helper()
			c := scanBlock(t, l, ids.NilLSN, block)
			if n, err := drain(t, c, lsns, payloads); err != nil || n != len(lsns) {
				t.Fatalf("scan returned %d of %d records, err %v", n, len(lsns), err)
			}
		}

		run("record straddles a block edge", func(t *testing.T, l *Log) {
			// 40-byte payloads frame to 47 bytes: no multiple of it is a
			// block size, so block edges fall inside frames and payloads.
			const rec = 47
			if frameLen(40) != rec {
				t.Fatalf("a 40-byte payload frames to %d bytes", frameLen(40))
			}
			payloads := numbered(2*block/rec+3, 40)
			lsns := appendAll(t, l, payloads...)
			before := l.Stats()
			scanAll(t, l, lsns, payloads)
			after := l.Stats()
			// A refill starts at the straddling record, so the bytes read
			// exceed the bytes scanned by less than a record per refill.
			total := int64(len(payloads) * rec)
			reads, bytesRead := after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes
			if bytesRead < total || bytesRead >= total+rec*reads {
				t.Errorf("%d reads of %d bytes for %d bytes of records", reads, bytesRead, total)
			}
			if want := int64(len(payloads) / (block / rec)); reads > want+1 {
				t.Errorf("%d device reads, want about %d (one per block)", reads, want)
			}
		})

		run("payload longer than the block", func(t *testing.T, l *Log) {
			payloads := [][]byte{[]byte("before"), bytes.Repeat([]byte("L"), 5000), []byte("after")}
			lsns := appendAll(t, l, payloads...)
			before := l.Stats().ReadOps
			scanAll(t, l, lsns, payloads)
			// The frame's block, the record in one exact read, the block after it.
			if got := l.Stats().ReadOps - before; got > 3 {
				t.Errorf("%d device reads for an oversize record between two small ones, want <= 3", got)
			}
		})

		run("zero-length payload is the last record", func(t *testing.T, l *Log) {
			payloads := append(numbered(5, 30), []byte{})
			scanAll(t, l, appendAll(t, l, payloads...), payloads)
		})

		run("segment roll mid-scan", func(t *testing.T, l *Log) {
			l.SetSegmentBytes(256)
			payloads := numbered(40, 33)
			lsns := appendAll(t, l, payloads...)
			if l.Stats().Segments < 4 {
				t.Fatal("log did not roll")
			}
			scanAll(t, l, lsns, payloads)
		})

		run("bounded view under concurrent appends", func(t *testing.T, l *Log) {
			payloads := numbered(60, 40)
			lsns := appendAll(t, l, payloads...)
			c := scanBlock(t, l, ids.NilLSN, block)
			done := make(chan error, 1)
			go func() {
				for i := 0; i < 200; i++ {
					if _, err := l.Append(2, []byte("late")); err != nil {
						done <- err
						return
					}
					if i%20 == 0 {
						if err := l.Flush(); err != nil {
							done <- err
							return
						}
					}
				}
				done <- nil
			}()
			n, err := drain(t, c, lsns, payloads)
			if err != nil || n != len(lsns) {
				t.Errorf("cursor returned %d records, err %v; its view holds %d", n, err, len(lsns))
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})

		run("segment trimmed under an open cursor", func(t *testing.T, l *Log) {
			l.SetSegmentBytes(256)
			payloads := numbered(60, 40)
			lsns := appendAll(t, l, payloads...)
			c := scanBlock(t, l, ids.NilLSN, block)
			if _, ok, err := c.Next(); !ok || err != nil {
				t.Fatal(ok, err)
			}
			if err := l.TrimHead(lsns[40]); err != nil {
				t.Fatal(err)
			}
			// Records the block already holds may still be served; the
			// next refill finds the segment gone. Nothing is skipped.
			n, err := drain(t, c, lsns[1:], payloads[1:])
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("after %d more records: %v, want ErrNotFound", n, err)
			}
		})

		run("bit-flipped payload", func(t *testing.T, l *Log) {
			payloads := numbered(30, 40)
			lsns := appendAll(t, l, payloads...)
			bad := lsns[17]
			clobber(t, l, bad, int64(frameLen(40)-40+5), []byte{^payloads[17][5]})
			c := scanBlock(t, l, ids.NilLSN, block)
			n, err := drain(t, c, lsns, payloads)
			if want := fmt.Sprintf("wal: checksum mismatch at %v", bad); n != 17 || err == nil || err.Error() != want {
				t.Errorf("scan stopped after %d records with %v, want 17 and %q", n, err, want)
			}
			if _, err := l.Read(bad); !errors.Is(err, errChecksum) {
				t.Errorf("Read of the flipped record: %v", err)
			}
		})

		for _, crash := range []bool{false, true} {
			crash := crash
			run(fmt.Sprintf("closed mid-scan (discard=%v)", crash), func(t *testing.T, l *Log) {
				payloads := numbered(30, 10)
				lsns := appendAll(t, l, payloads...)
				c := scanBlock(t, l, ids.NilLSN, block)
				rd := readerOn(l, block)
				if _, err := rd.ReadAt(lsns[0]); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := c.Next(); !ok || err != nil {
					t.Fatal(ok, err)
				}
				// Both readers now hold the next record in their blocks —
				// bytes that, after Discard, are no longer in the log.
				shut := l.Close
				if crash {
					shut = l.Discard
				}
				if err := shut(); err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.Next(); !errors.Is(err, ErrClosed) {
					t.Errorf("Next on a closed log: %v, want ErrClosed", err)
				}
				if _, err := rd.ReadAt(lsns[1]); !errors.Is(err, ErrClosed) {
					t.Errorf("ReadAt on a closed log: %v, want ErrClosed", err)
				}
			})
		}

		// Hold: one device read when the span can be held, none when it
		// cannot; never a different record, error or lifetime than reads
		// without it.
		hold := func(t *testing.T, l *Log, lo, hi ids.LSN) (rd *Reader, reads, bytesRead int64) {
			t.Helper()
			rd = readerOn(l, block)
			before := l.Stats()
			rd.Hold(lo, hi)
			after := l.Stats()
			return rd, after.ReadOps - before.ReadOps, after.ReadBytes - before.ReadBytes
		}
		readBack := func(t *testing.T, rd *Reader, lsns []ids.LSN, payloads [][]byte) {
			t.Helper()
			for i := range lsns {
				j := i * 37 % len(lsns) // not in log order: a worker's chains interleave
				rec, err := rd.ReadAt(lsns[j])
				if err != nil || rec.LSN != lsns[j] || !bytes.Equal(rec.Payload, payloads[j]) {
					t.Fatalf("ReadAt(%v) = %v (%d bytes), err %v", lsns[j], rec.LSN, len(rec.Payload), err)
				}
			}
		}

		run("hold: span fits", func(t *testing.T, l *Log) {
			payloads := numbered(200, 40)
			lsns := appendAll(t, l, payloads...)
			rd, reads, bytesRead := hold(t, l, lsns[0], lsns[len(lsns)-1])
			if want := int64(len(payloads) * frameLen(40)); reads != 1 || bytesRead != want {
				t.Fatalf("Hold issued %d reads of %d bytes, want 1 of %d (the span, cut at the segment's end)", reads, bytesRead, want)
			}
			before := l.Stats().ReadOps
			readBack(t, rd, lsns, payloads)
			if got := l.Stats().ReadOps - before; got != 0 {
				t.Errorf("%d device reads under a hold of every record read", got)
			}
		})

		run("hold: at holdMax, and one byte over", func(t *testing.T, l *Log) {
			// hi - lo is the first record's frame: the span is that plus a block.
			for over := 0; over <= 1; over++ {
				big := make([]byte, holdMax-block-9+over) // a payload this long takes a 3-byte length: 9 bytes of frame
				payloads := [][]byte{big, []byte("hi")}
				lsns := appendAll(t, l, payloads...)
				rd, reads, _ := hold(t, l, lsns[0], lsns[1])
				if want := int64(1 - over); reads != want {
					t.Fatalf("span of holdMax+%d: Hold issued %d reads, want %d", over, reads, want)
				}
				readBack(t, rd, lsns, payloads)
			}
		})

		run("hold: span crosses a segment", func(t *testing.T, l *Log) {
			l.SetSegmentBytes(256)
			payloads := numbered(40, 33)
			lsns := appendAll(t, l, payloads...)
			rd, reads, _ := hold(t, l, lsns[0], lsns[len(lsns)-1])
			if reads != 0 {
				t.Fatalf("Hold across %d segments issued %d reads", l.Stats().Segments, reads)
			}
			readBack(t, rd, lsns, payloads)
		})

		run("hold: hi in the unflushed buffer", func(t *testing.T, l *Log) {
			payloads := numbered(10, 33)
			lsns := appendAll(t, l, payloads...)
			pending, err := l.Append(1, []byte("not in the file yet"))
			if err != nil {
				t.Fatal(err)
			}
			rd, reads, _ := hold(t, l, lsns[0], pending)
			if reads != 0 {
				t.Fatalf("Hold up to an unflushed record issued %d reads", reads)
			}
			readBack(t, rd, lsns, payloads)
		})

		run("hold: segment trimmed under it", func(t *testing.T, l *Log) {
			l.SetSegmentBytes(1024)
			payloads := numbered(60, 40)
			lsns := appendAll(t, l, payloads...)
			rd, reads, _ := hold(t, l, lsns[0], lsns[10])
			if reads != 1 {
				t.Fatalf("Hold inside the first segment issued %d reads", reads)
			}
			if err := l.TrimHead(lsns[45]); err != nil {
				t.Fatal(err)
			}
			// Hits keep serving what the block holds; the first miss finds
			// the segment gone.
			readBack(t, rd, lsns[:11], payloads[:11])
			if _, err := rd.ReadAt(lsns[30]); !errors.Is(err, ErrNotFound) {
				t.Errorf("miss after the trim: %v, want ErrNotFound", err)
			}
		})

		run("hold: record at hi longer than the span's last block", func(t *testing.T, l *Log) {
			payloads := [][]byte{[]byte("a"), []byte("b"), bytes.Repeat([]byte("L"), 5000), []byte("after")}
			lsns := appendAll(t, l, payloads...)
			rd, reads, _ := hold(t, l, lsns[0], lsns[2])
			if reads != 1 {
				t.Fatalf("Hold issued %d reads", reads)
			}
			readBack(t, rd, lsns, payloads)
		})

		for _, crash := range []bool{false, true} {
			crash := crash
			run(fmt.Sprintf("hold: closed under it (discard=%v)", crash), func(t *testing.T, l *Log) {
				lsns := appendAll(t, l, numbered(30, 10)...)
				rd, reads, _ := hold(t, l, lsns[0], lsns[29])
				if reads != 1 {
					t.Fatalf("Hold issued %d reads", reads)
				}
				shut := l.Close
				if crash {
					shut = l.Discard
				}
				if err := shut(); err != nil {
					t.Fatal(err)
				}
				for _, lsn := range lsns {
					if _, err := rd.ReadAt(lsn); !errors.Is(err, ErrClosed) {
						t.Fatalf("ReadAt(%v) under a hold on a closed log: %v, want ErrClosed", lsn, err)
					}
				}
				rd.Hold(lsns[0], lsns[29]) // and holding again is harmless
			})
		}
	}
}

// TestReaderHoldOnSet: a Set's reader is its log's: a hold of the
// span of every record costs one device read, and the reads after it
// none.
func TestReaderHoldOnSet(t *testing.T) {
	s, err := OpenSet(filepath.Join(t.TempDir(), "proc.log"), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lsns []ids.LSN
	for key := uint64(1); key <= 40; key++ {
		lsns = append(lsns, appendKeyed(t, s, key, []byte(fmt.Sprintf("record of key %d", key))))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := s.NewReader()
	rd.Hold(lsns[0], lsns[len(lsns)-1])
	for _, lsn := range lsns {
		if rec, err := rd.ReadAt(lsn); err != nil || rec.LSN != lsn {
			t.Fatalf("ReadAt(%v) = %v, %v", lsn, rec.LSN, err)
		}
	}
	if got := s.Stats().ReadOps; got != 1 {
		t.Errorf("%d device reads for a held span, want 1", got)
	}
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTornLengthCostsNothing: a frame whose length field claims 2^63
// bytes — a torn tail at open, or a frame damaged under a live log — is
// refused on its length alone, before any buffer is sized by it.
func TestTornLengthCostsNothing(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	l, dir := openTemp(t)
	payloads := numbered(20, 24)
	lsns := appendAll(t, l, payloads...)
	if _, err := l.SyncAll(); err != nil {
		t.Fatal(err)
	}
	end := l.End()
	seg := activeSegPath(t, l)
	l.Close()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(huge, 0, 0, 0, 0, 1, 0, 'x', 'y')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var l2 *Log
	if got := allocatedBy(func() { l2, err = OpenSet(dir, nil, 1) }); err != nil || got > 2*readBlock {
		t.Fatalf("Open over a torn 2^63-byte frame: err %v, %d bytes allocated (a block is %d)", err, got, readBlock)
	}
	defer l2.Close()
	if l2.End() != end {
		t.Errorf("log ends at %v after open, want the torn frame cut off at %v", l2.End(), end)
	}

	// Over a live record the ten length bytes reach into the payload:
	// what follows them still has to parse as a header before the length
	// is looked at, so give it one.
	clobber(t, l2, lsns[10], 0, append(huge, 0, 0, 0, 0, 1, 0))
	c, err := l2.ScanFrom(ids.NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if got := allocatedBy(func() { n, err = drain(t, c, lsns, payloads) }); got > 2*readBlock {
		t.Errorf("cursor over a 2^63-byte frame allocated %d bytes (a block is %d)", got, readBlock)
	}
	if n != 10 || !errors.Is(err, ErrNotFound) {
		t.Errorf("cursor stopped after %d records with %v, want 10 and ErrNotFound", n, err)
	}
}

// TestReaderRejectsWhatNoAppendWrites: bytes that are not a frame an
// append wrote are not a record, whatever their checksum field says.
func TestReaderRejectsWhatNoAppendWrites(t *testing.T) {
	// A zero-filled or never-written page parses as an empty type-0
	// record whose checksum field is 0: the checksum of that record is not.
	if crc := crc32.Update(0, crcTable, []byte{0, 0}); crc == 0 {
		t.Fatal("CRC-32C of a zero type byte and a zero distance is 0: a zero-filled tail would scan as records")
	}
	// frame builds a frame by hand, so the encodings Append never
	// produces can be written with a checksum that matches them.
	frame := func(length []byte, typ byte, dist, payload []byte) []byte {
		covered := append(append([]byte{typ}, dist...), payload...)
		b := binary.LittleEndian.AppendUint32(append([]byte{}, length...), crc32.Checksum(covered, crcTable))
		return append(b, covered...)
	}
	payload := []byte("0123456789")
	good := frame([]byte{10}, 1, []byte{0}, payload)
	cases := []struct {
		name string
		tail []byte
		want error // what reading the bytes as a record reports; nil: they are one
	}{
		{"a well-formed frame", good, nil},
		{"zero-filled tail", make([]byte, 64), errChecksum},
		{"stale page: an old frame's middle", good[3:], errChecksum},
		{"non-minimal length", frame([]byte{0x8a, 0x00}, 1, []byte{0}, payload), errChecksum},
		{"over-long length", frame(append(bytes.Repeat([]byte{0x80}, 10), 0x01), 1, []byte{0}, payload), errChecksum},
		{"non-minimal distance", frame([]byte{10}, 1, []byte{0x80, 0x00}, payload), errChecksum},
		{"distance back past the start of any log", frame([]byte{10}, 1, binary.AppendUvarint(nil, 1<<40), payload), errChecksum},
		{"length torn off after its first byte", []byte{0xff}, ErrNotFound},
		{"header torn off inside the checksum", good[:3], ErrNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, dir := openTemp(t)
			lsns := appendAll(t, l, numbered(3, 8)...)
			if _, err := l.SyncAll(); err != nil {
				t.Fatal(err)
			}
			end := l.End()
			seg := activeSegPath(t, l)
			l.Close()
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			l, err = OpenSet(dir, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if tc.want == nil {
				rec, err := l.Read(end)
				if err != nil || !bytes.Equal(rec.Payload, payload) || rec.Size != len(tc.tail) {
					t.Fatalf("Read(%v) = %q (%d bytes of log), %v", end, rec.Payload, rec.Size, err)
				}
				return
			}
			if l.End() != end {
				t.Fatalf("log ends at %v after open, want the tail cut off at %v", l.End(), end)
			}
			if n, err := drain(t, scanBlock(t, l, ids.NilLSN, readBlock), lsns, numbered(3, 8)); n != 3 || err != nil {
				t.Fatalf("scan after open: %d records, %v", n, err)
			}
			// And under a live log, where nothing truncates: the same
			// bytes behind the last record read as the same error.
			clobberTail(t, l, end, tc.tail)
			rd := Reader{l: l, block: readBlock, limit: end + ids.LSN(len(tc.tail))}
			if _, err := rd.read(end); !errors.Is(err, tc.want) {
				t.Errorf("read of the tail: %v, want %v", err, tc.want)
			}
		})
	}
}

// clobberTail writes b behind the log's last record, behind its back,
// and makes the active segment own the bytes.
func clobberTail(t *testing.T, l *Log, end ids.LSN, b []byte) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.active()
	if s.end() != end {
		t.Fatalf("active segment ends at %v, not %v", s.end(), end)
	}
	if _, err := s.f.WriteAt(b, segHeaderSize+s.size); err != nil {
		t.Fatal(err)
	}
	s.size += int64(len(b))
}

// TestReaderWalksBackwardsByTheBlock: positioned reads at descending
// LSNs — a chain followed through Record.Prev — cost a device read per
// block of log passed over, as a forward scan does, not one per record;
// the same reader then reads forwards again.
func TestReaderWalksBackwardsByTheBlock(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.SetSegmentBytes(48 << 10) // the walk crosses segment files too
	const n, block = 2000, 4 << 10
	var head atomic.Uint64
	var lsns []ids.LSN
	payloads := numbered(n, 40)
	for i, p := range payloads {
		p := p
		enc := EncodeFunc(func(dst []byte) ([]byte, error) { return append(dst, p...), nil })
		var lsn ids.LSN
		var err error
		if i%3 == 0 { // every third record is on the chain
			lsn, err = l.AppendLinked(0, 1, enc, &head)
		} else {
			lsn, err = l.AppendLinked(0, 2, enc, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := int64(l.Stats().Segments)
	if segs < 2 {
		t.Fatal("log did not roll")
	}
	rd := readerOn(l, block)
	var chain []ids.LSN
	for lsn := ids.LSN(head.Load()); !lsn.IsNil(); {
		rec, err := rd.ReadAt(lsn)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, lsn)
		if rec.Prev >= lsn {
			t.Fatalf("record at %v links to %v", lsn, rec.Prev)
		}
		lsn = rec.Prev
	}
	for i, lsn := range chain {
		if want := lsns[3*(len(chain)-1-i)]; lsn != want {
			t.Fatalf("chain entry %d from the head is %v, want %v", i, lsn, want)
		}
	}
	span := int64(l.End() - lsns[0])
	// A block per block of log and one more per segment: a read does not
	// cross files.
	if got, max := rd.Reads(), span/block+segs+1; got > max {
		t.Errorf("backward walk over %d bytes issued %d device reads, want at most %d", span, got, max)
	}
	before := rd.Reads()
	for i := len(chain) - 1; i >= 0; i-- {
		if rec, err := rd.ReadAt(chain[i]); err != nil || !bytes.Equal(rec.Payload, payloads[3*(len(chain)-1-i)]) {
			t.Fatalf("forward ReadAt(%v): %v", chain[i], err)
		}
	}
	if got, max := rd.Reads()-before, span/block+segs+2; got > max {
		t.Errorf("forward pass over %d bytes issued %d device reads, want at most %d", span, got, max)
	}
}

// TestScanFromCursorsAppenderTrim: cursors, an appender and TrimHead
// share a log (run under -race). A cursor either reaches the end of
// its view or loses its segment to the trim; it never returns a record
// out of order or out of its view.
func TestScanFromCursorsAppenderTrim(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.SetSegmentBytes(1024)
	payload := func(i int) []byte { return []byte(fmt.Sprintf("record-%06d", i)) }
	const early, late = 400, 400
	var lsns []ids.LSN
	for i := 0; i < early; i++ {
		lsn, err := l.Append(1, payload(i))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() { // appender and trimmer
		defer wg.Done()
		for i := early; i < early+late; i++ {
			if _, err := l.Append(1, payload(i)); err != nil {
				errs <- err
				return
			}
			if i%50 == 0 {
				if err := l.TrimHead(lsns[(i-early)/2]); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for _, block := range []int{64, 512, readBlock, readBlock} {
		block := block
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := l.ScanFrom(ids.NilLSN)
			if err != nil {
				errs <- err
				return
			}
			c.r.block = block
			next := -1
			for {
				rec, ok, err := c.Next()
				if errors.Is(err, ErrNotFound) || (err == nil && !ok) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				var i int
				if _, err := fmt.Sscanf(string(rec.Payload), "record-%d", &i); err != nil || (next >= 0 && i != next) {
					errs <- fmt.Errorf("block %d: got %q at %v, want record %d", block, rec.Payload, rec.LSN, next)
					return
				}
				next = i + 1
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAllocsReader: a scan allocates its cursor and one block however
// many records it visits, and a reused positioned reader nothing at all.
func TestAllocsReader(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	lsns := appendAll(t, l, numbered(4096, 128)...)
	scan := testing.AllocsPerRun(5, func() {
		c, err := l.ScanFrom(ids.NilLSN)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok, err := c.Next(); err != nil || !ok {
				break
			}
		}
	})
	if scan > 2 {
		t.Errorf("a scan of %d records allocates %.0f times, want 2 (cursor, block)", len(lsns), scan)
	}
	rd := readerOn(l, readBlock)
	i := 0
	positioned := testing.AllocsPerRun(1000, func() {
		if _, err := rd.ReadAt(lsns[i*37%len(lsns)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if positioned != 0 {
		t.Errorf("a positioned read allocates %.1f times, want 0", positioned)
	}
	held := readerOn(l, readBlock)
	held.Hold(lsns[0], lsns[len(lsns)-1])
	before := l.Stats().ReadOps
	positioned = testing.AllocsPerRun(1000, func() {
		if _, err := held.ReadAt(lsns[i*37%len(lsns)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got := l.Stats().ReadOps - before; positioned != 0 || got != 0 {
		t.Errorf("a positioned read after a hold allocates %.1f times and the run issued %d device reads, want 0 and 0", positioned, got)
	}
}

// TestFrameIsUvarintLengthCRC32CTypeDistance pins the frame format, as
// every segment on disk holds it: uvarint payload length, CRC-32C
// (Castagnoli), little-endian, over everything behind it — the type
// byte, the uvarint distance to the chain's previous record, the
// payload.
func TestFrameIsUvarintLengthCRC32CTypeDistance(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	var head atomic.Uint64
	long := bytes.Repeat([]byte("0123456789"), 30)
	payloads := [][]byte{[]byte("on disk"), nil, long, []byte("tail")}
	var lsns []ids.LSN
	for _, p := range payloads {
		p := p
		lsn, err := l.AppendLinked(0, 7, EncodeFunc(func(dst []byte) ([]byte, error) { return append(dst, p...), nil }), &head)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(activeSegPath(t, l))
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var want []byte
	for i, p := range payloads {
		dist := uint64(0)
		if i > 0 {
			dist = uint64(lsns[i] - lsns[i-1])
		}
		covered := append(binary.AppendUvarint([]byte{7}, dist), p...)
		want = binary.AppendUvarint(want, uint64(len(p)))
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(covered, castagnoli))
		want = append(want, covered...)
	}
	if got := raw[segHeaderSize:]; !bytes.Equal(got, want) {
		t.Fatalf("segment holds\n%x\nwant\n%x", got, want)
	}
	if got, min := len(want), frameMin*len(payloads)+len("on disk")+len(long)+len("tail"); got != min+2 {
		t.Errorf("%d bytes for four records, want %d: seven bytes of frame each, one more for the 300-byte length and one for the distance past it", got, min+2)
	}
	// And it reads back with the links.
	for i, lsn := range lsns {
		rec, err := l.Read(lsn)
		prev := ids.NilLSN
		if i > 0 {
			prev = lsns[i-1]
		}
		if err != nil || rec.Type != 7 || rec.Prev != prev || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Errorf("Read(%v) = type %d, prev %v, %d bytes, %v; want type 7, prev %v", lsn, rec.Type, rec.Prev, len(rec.Payload), err, prev)
		}
	}
}
