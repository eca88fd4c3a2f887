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

// numbered returns n distinguishable payloads of size bytes each.
func numbered(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return out
}

// readerOn is a positioned reader over l with a read-ahead block of
// block bytes (what Set.NewReader builds over its shards).
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
			// 40-byte payloads frame to 49 bytes: no multiple of it is a
			// block size, so block edges fall inside frames and payloads.
			payloads := numbered(2*block/49+3, 40)
			lsns := appendAll(t, l, payloads...)
			before := l.Stats()
			scanAll(t, l, lsns, payloads)
			after := l.Stats()
			// A refill starts at the straddling record, so the bytes read
			// exceed the bytes scanned by less than a record per refill.
			total := int64(len(payloads) * 49)
			reads, bytesRead := after.ReadOps-before.ReadOps, after.ReadBytes-before.ReadBytes
			if bytesRead < total || bytesRead >= total+49*reads {
				t.Errorf("%d reads of %d bytes for %d bytes of records", reads, bytesRead, total)
			}
			if want := int64(len(payloads) / (block / 49)); reads > want+1 {
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
			clobber(t, l, bad, frameSize+5, []byte{^payloads[17][5]})
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
			if want := int64(len(payloads) * 49); reads != 1 || bytesRead != want {
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
				big := make([]byte, holdMax-block-frameSize+over)
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

		run("hold: span crosses a stream", func(t *testing.T, l *Log) {
			payloads := numbered(10, 33)
			lsns := appendAll(t, l, payloads...)
			rd, reads, _ := hold(t, l, lsns[0], ids.StreamLSN(l.base.Stream()+1, lsns[9]))
			if reads != 0 {
				t.Fatalf("Hold across streams issued %d reads", reads)
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

// TestReaderHoldOnSet: a Set's reader follows lo's stream tag to its
// shard, and holds nothing for a span that names two streams.
func TestReaderHoldOnSet(t *testing.T) {
	s, err := OpenSet(filepath.Join(t.TempDir(), "proc.log"), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	byStream := make(map[uint32][]ids.LSN)
	for key := uint64(1); key <= 40; key++ {
		lsn := appendKeyed(t, s, key, []byte(fmt.Sprintf("record of key %d", key)))
		byStream[lsn.Stream()] = append(byStream[lsn.Stream()], lsn)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(byStream) != 2 {
		t.Fatalf("40 keys landed on %d streams", len(byStream))
	}
	one, two := byStream[1], byStream[2]
	rd := s.NewReader()
	rd.Hold(one[0], two[len(two)-1])
	if got := s.Stats().ReadOps; got != 0 {
		t.Fatalf("Hold across streams issued %d reads", got)
	}
	for _, lsns := range [][]ids.LSN{two, one} {
		before := s.Stats().ReadOps
		rd.Hold(lsns[0], lsns[len(lsns)-1])
		for _, lsn := range lsns {
			if rec, err := rd.ReadAt(lsn); err != nil || rec.LSN != lsn {
				t.Fatalf("ReadAt(%v) = %v, %v", lsn, rec.LSN, err)
			}
		}
		if got := s.Stats().ReadOps - before; got != 1 {
			t.Errorf("stream %d: %d device reads for a held stream, want 1", lsns[0].Stream(), got)
		}
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

// TestTornLengthCostsNothing: a frame whose length field claims 4 GiB —
// a torn tail at open, or a frame damaged under a live log — is refused
// on its length alone, before any buffer is sized by it.
func TestTornLengthCostsNothing(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
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
	if _, err := f.Write(append(huge, 1, 0, 0, 0, 0, 'x', 'y')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var l2 *Log
	if got := allocatedBy(func() { l2, err = Open(dir, nil) }); err != nil || got > 2*readBlock {
		t.Fatalf("Open over a torn 4 GiB frame: err %v, %d bytes allocated (a block is %d)", err, got, readBlock)
	}
	defer l2.Close()
	if l2.End() != end {
		t.Errorf("log ends at %v after open, want the torn frame cut off at %v", l2.End(), end)
	}

	clobber(t, l2, lsns[10], 0, huge)
	c, err := l2.ScanFrom(ids.NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if got := allocatedBy(func() { n, err = drain(t, c, lsns, payloads) }); got > 2*readBlock {
		t.Errorf("cursor over a 4 GiB frame allocated %d bytes (a block is %d)", got, readBlock)
	}
	if n != 10 || !errors.Is(err, ErrNotFound) {
		t.Errorf("cursor stopped after %d records with %v, want 10 and ErrNotFound", n, err)
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

// TestFrameChecksumIsIEEEOverTypeAndPayload pins the frame format: the
// checksum continued from typeCRC is, bit for bit, CRC-32/IEEE over the
// type byte followed by the payload — what every segment on disk holds.
func TestFrameChecksumIsIEEEOverTypeAndPayload(t *testing.T) {
	payloads := [][]byte{nil, {0}, []byte("reply"), bytes.Repeat([]byte{0xA5}, 15), bytes.Repeat([]byte("0123456789"), 100)}
	for typ := 0; typ < 256; typ++ {
		for _, p := range payloads {
			want := crc32.ChecksumIEEE(append([]byte{byte(typ)}, p...))
			if got := crc32.Update(typeCRC[typ], crcTable, p); got != want {
				t.Fatalf("type %d, %d-byte payload: checksum %#x, IEEE over type+payload is %#x", typ, len(p), got, want)
			}
		}
	}
	l, _ := openTemp(t)
	defer l.Close()
	lsn := appendAll(t, l, []byte("on disk"))[0]
	raw, err := os.ReadFile(activeSegPath(t, l))
	if err != nil {
		t.Fatal(err)
	}
	frame := raw[segHeaderSize+int(lsn-l.base):]
	if got, want := binary.LittleEndian.Uint32(frame[5:9]), crc32.ChecksumIEEE(append([]byte{1}, "on disk"...)); got != want {
		t.Errorf("frame on disk carries checksum %#x, want %#x", got, want)
	}
}
