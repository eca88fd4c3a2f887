package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ids"
)

func appendKeyed(t *testing.T, w Writer, key uint64, payload []byte) ids.LSN {
	t.Helper()
	lsn, err := w.AppendInto(key, 1, EncodeFunc(func(dst []byte) ([]byte, error) {
		return append(dst, payload...), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestOpenSetFresh: a fresh 4-shard set creates streams 1..4, routes
// appends deterministically by key, and reads records back through the
// stream-tagged LSNs.
func TestOpenSetFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	shards := s.Shards()
	if len(shards) != 4 {
		t.Fatalf("fresh 4-shard set has %d shards", len(shards))
	}
	for i, sh := range shards {
		if sh.Stream != uint32(i+1) || sh.Era != 0 {
			t.Errorf("shard %d: stream %d era %d, want stream %d era 0", i, sh.Stream, sh.Era, i+1)
		}
	}

	// Key 0 (process-wide records) pins to the meta shard.
	meta := appendKeyed(t, s, 0, []byte("meta"))
	if meta.Stream() != shards[0].Stream {
		t.Errorf("key 0 landed on stream %d, want meta stream %d", meta.Stream(), shards[0].Stream)
	}

	// Routing is deterministic, and reads route back by stream tag.
	byKey := make(map[uint64]uint32)
	for key := uint64(1); key <= 16; key++ {
		lsn := appendKeyed(t, s, key, []byte(fmt.Sprintf("k%d", key)))
		byKey[key] = lsn.Stream()
		rec, err := s.Read(lsn)
		if err != nil {
			t.Fatalf("read %v: %v", lsn, err)
		}
		if !bytes.Equal(rec.Payload, []byte(fmt.Sprintf("k%d", key))) {
			t.Errorf("read %v returned %q", lsn, rec.Payload)
		}
		if streams := s.StreamsFor(key); len(streams) != 1 || streams[0] != lsn.Stream() {
			t.Errorf("StreamsFor(%d) = %v, append landed on %d", key, streams, lsn.Stream())
		}
	}
	spread := make(map[uint32]bool)
	for key, stream := range byKey {
		lsn2 := appendKeyed(t, s, key, []byte("again"))
		if lsn2.Stream() != stream {
			t.Errorf("key %d moved from stream %d to %d", key, stream, lsn2.Stream())
		}
		spread[stream] = true
	}
	if len(spread) < 2 {
		t.Errorf("16 keys all routed to %d stream(s); hashing is not spreading", len(spread))
	}

	// Reopen: same meta, same routing, records still there.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSet(dir, nil, 0) // 0 = keep existing layout
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Shards()); got != 4 {
		t.Fatalf("reopen with n=0: %d shards, want 4", got)
	}
	for key, stream := range byKey {
		if lsn := appendKeyed(t, s2, key, []byte("post")); lsn.Stream() != stream {
			t.Errorf("after reopen key %d routed to stream %d, want %d", key, lsn.Stream(), stream)
		}
	}
}

// TestOpenSetRejectsBareLogDir: a directory holding a bare Log's
// segment files and no era file is an error naming the directory, and
// is left as it was — never an empty new log beside the old records.
func TestOpenSetRejectsBareLogDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(dir)
	for _, n := range []int{0, 4} {
		if _, err := OpenSet(dir, nil, n); err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("OpenSet(bare log dir, %d) = %v, want an error naming %s", n, err, dir)
		}
	}
	if after, _ := os.ReadDir(dir); len(after) != len(before) {
		t.Errorf("rejected open changed the directory: %d entries, was %d", len(after), len(before))
	}
}

// TestShardMetaRejectsMalformedLines: the header counts the eras and an
// era line is exactly what saveShardMeta writes — trailing tokens, a
// missing line and stream 0 (a bare Log's tag) do not load. A hint line
// that is not is no reason to refuse the log: the hints are dropped.
func TestShardMetaRejectsMalformedLines(t *testing.T) {
	write := func(body string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shardMetaName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, body := range []string{" 1\nera 1 4 junk\n", " 1\nera 0 1\n", " 1\nera 1\n", " 2\nera 1 1\n", " 0\n", " -1\n", "\nera 1 1\n", " 1 \nera 1 1\n", " 2\nera 1 2\nera 2 1\n"} {
		dir := write(shardMetaMagic + body)
		if _, err := OpenSet(dir, nil, 0); err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("OpenSet of a shard meta %q = %v, want an error naming %s", shardMetaMagic+body, err, dir)
		}
	}
	for _, hints := range []string{"stable 1 64 junk\n", "stable 1\n", "stable 300 64\n", "mark 1 72057594037927936\n", "mark 1 64\n"} {
		for _, sum := range []string{fmt.Sprintf("sum %08x\n", crc32.ChecksumIEEE([]byte(hints))), ""} {
			s, err := OpenSet(write(shardMetaMagic+" 1\nera 1 1\n"+sum+hints), nil, 0)
			if err != nil {
				t.Fatalf("hints %q: %v", sum+hints, err)
			}
			if hints == "mark 1 64\n" && sum != "" {
				if len(s.Marks()) != 1 || s.HintsLost() {
					t.Errorf("hints %q: marks %v, lost %v; want the one mark", sum+hints, s.Marks(), s.HintsLost())
				}
			} else if len(s.Marks())+len(s.StableMarks()) != 0 || !s.HintsLost() {
				t.Errorf("hints %q: marks %v, watermarks %v, lost %v; want none, lost", sum+hints, s.Marks(), s.StableMarks(), s.HintsLost())
			}
			s.Close()
		}
	}
}

// TestOpenSetWritesMetaOnlyOnChange: the default open makes a one-shard
// set (shards.meta + shard-001); reopening without a reshard leaves the
// era file alone; a reshard persists the new era list before any
// directory of the new era is touched.
func TestOpenSetWritesMetaOnlyOnChange(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shards := s.Shards(); len(shards) != 1 || shards[0].Stream != 1 {
		t.Fatalf("default set has shards %+v, want the one stream 1", shards)
	}
	s.Close()
	metaPath := filepath.Join(dir, shardMetaName)
	before, err := os.Stat(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-001")); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1} {
		s, err := OpenSet(dir, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		after, err := os.Stat(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
			t.Errorf("reopen with n=%d rewrote %s", n, shardMetaName)
		}
	}

	// A file where the first new shard directory must go makes the
	// reshard fail — after the era list was made durable.
	blocker := filepath.Join(dir, shardDirName(2))
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir, nil, 3); err == nil {
		t.Fatal("reshard opened a shard directory through a regular file")
	}
	if r, err := loadShardMeta(dir); err != nil || len(r.eras) != 2 || r.eras[1] != (Era{Base: 2, Count: 3}) {
		t.Fatalf("era list after the failed reshard = %v, %v; want the new era {2 3} persisted", r.eras, err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s, err = OpenSet(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Shards()); got != 4 {
		t.Errorf("reopen after the reshard: %d shards, want 4 (1 + 3)", got)
	}
}

// TestOpenSetReshard: changing the shard count appends an era with
// fresh stream IDs; reopening with 0 or the same count does not.
func TestOpenSetReshard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	appendKeyed(t, s, 7, []byte("era0"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSet(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	shards := s2.Shards()
	if len(shards) != 6 {
		t.Fatalf("resharded set has %d shards, want 6 (2 + 4)", len(shards))
	}
	want := []struct {
		stream uint32
		era    int
	}{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 1}, {6, 1}}
	for i, w := range want {
		if shards[i].Stream != w.stream || shards[i].Era != w.era {
			t.Errorf("shard %d: stream %d era %d, want stream %d era %d",
				i, shards[i].Stream, shards[i].Era, w.stream, w.era)
		}
	}
	if lsn := appendKeyed(t, s2, 7, []byte("era1")); lsn.Stream() < 3 {
		t.Errorf("post-reshard append landed on old-era stream %d", lsn.Stream())
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Same count and zero both keep the layout.
	for _, n := range []int{0, 4} {
		s3, err := OpenSet(dir, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s3.Shards()); got != 6 {
			t.Errorf("reopen with n=%d: %d shards, want 6", n, got)
		}
		s3.Close()
	}
}

// TestOpenSetShardBound: shard counts past the LSN tag space are
// rejected up front.
func TestOpenSetShardBound(t *testing.T) {
	if _, err := OpenSet(filepath.Join(t.TempDir(), "p.log"), nil, ids.MaxStream+1); err == nil {
		t.Fatal("OpenSet accepted a shard count past the stream tag space")
	}
}

// TestSetSyncRouting: SyncTo touches only the target LSN's shard;
// SyncAll makes every appendable shard durable.
func TestSetSyncRouting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Find two keys on different streams.
	a := appendKeyed(t, s, 1, []byte("a"))
	var b ids.LSN
	for key := uint64(2); ; key++ {
		b = appendKeyed(t, s, key, []byte("b"))
		if b.Stream() != a.Stream() {
			break
		}
	}
	if _, err := s.SyncTo(a); err != nil {
		t.Fatal(err)
	}
	// The synced watermark is an exclusive end position: a record is
	// durable once the watermark passes the shard's End() after it.
	la, lb := s.byStr[a.Stream()], s.byStr[b.Stream()]
	if la.SyncedLSN() < la.End() {
		t.Errorf("shard %d synced watermark %v, want >= %v", a.Stream(), la.SyncedLSN(), la.End())
	}
	if lb.SyncedLSN() >= lb.End() {
		t.Errorf("SyncTo(%v) also forced shard %d (synced %v)", a, b.Stream(), lb.SyncedLSN())
	}
	if _, err := s.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if lb.SyncedLSN() < lb.End() {
		t.Errorf("SyncAll left shard %d at %v, want >= %v", b.Stream(), lb.SyncedLSN(), lb.End())
	}
}

// TestShardMetaRoot: shards.meta is the one root of a log. Eras, marks
// and stable watermarks round-trip through Publish and OpenSet together;
// publications never go backwards; any damage to the hint section loses
// both hints and nothing else; the same damage to the magic or an era
// line refuses the log.
func TestShardMetaRoot(t *testing.T) {
	// build opens a log through the given shard counts in turn (a
	// reshard each), appends a few records to every appendable stream
	// and publishes marks for the named streams.
	build := func(t *testing.T, counts []int, marked ...uint32) (dir string, marks, stable map[uint32]ids.LSN) {
		t.Helper()
		dir = filepath.Join(t.TempDir(), "p.log")
		var s *Set
		for _, n := range counts {
			if s != nil {
				s.Close()
			}
			var err error
			if s, err = OpenSet(dir, nil, n); err != nil {
				t.Fatal(err)
			}
		}
		defer s.Close()
		var last ids.LSN
		for key := uint64(0); key < 32; key++ {
			last = appendKeyed(t, s, key, []byte("record"))
		}
		if _, err := s.SyncAll(); err != nil {
			t.Fatal(err)
		}
		marks, stable = make(map[uint32]ids.LSN), make(map[uint32]ids.LSN)
		for _, sh := range s.Shards() {
			stable[sh.Stream] = sh.Log.SyncedLSN()
		}
		for _, stream := range marked {
			marks[stream] = s.byStr[stream].Start()
		}
		if err := s.Publish(last, marks); err != nil {
			t.Fatal(err)
		}
		// An older checkpoint arriving late writes nothing.
		if err := s.Publish(last-1, map[uint32]ids.LSN{marked[0]: last}); err != nil {
			t.Fatal(err)
		}
		if got := s.Marks(); !reflect.DeepEqual(got, marks) {
			t.Fatalf("live marks %v, want %v", got, marks)
		}
		return dir, marks, stable
	}
	images := []struct {
		name   string
		counts []int
		marked []uint32
		eras   []Era
	}{
		{"one stream", []int{1}, []uint32{1}, []Era{{1, 1}}},
		{"three eras", []int{1, 2, 3}, []uint32{1, 2, 5}, []Era{{1, 1}, {2, 2}, {4, 3}}},
	}
	for _, im := range images {
		t.Run(im.name+" round trip", func(t *testing.T) {
			dir, marks, stable := build(t, im.counts, im.marked...)
			for _, n := range []int{0, 4} { // as it is, then through a reshard
				s, err := OpenSet(dir, nil, n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(s.Marks(), marks) || !reflect.DeepEqual(s.StableMarks(), stable) || s.HintsLost() {
					t.Errorf("reopened with %d: marks %v, watermarks %v, lost %v; want %v, %v", n, s.Marks(), s.StableMarks(), s.HintsLost(), marks, stable)
				}
				if n == 0 && !reflect.DeepEqual(s.eras, im.eras) {
					t.Errorf("eras %v, want %v", s.eras, im.eras)
				}
				// A newer publication replaces the root outright.
				next := map[uint32]ids.LSN{im.marked[0]: stable[im.marked[0]]}
				if err := s.Publish(ids.StreamLSN(200, 0), next); err != nil {
					t.Fatal(err)
				}
				s.Close()
				if r, err := loadShardMeta(dir); err != nil || !reflect.DeepEqual(r.marks, next) || len(r.stable) != len(s.Shards()) {
					t.Errorf("after a second publication: %+v, %v; want marks %v and a watermark per stream", r, err, next)
				}
				if err := saveShardMeta(dir, root{eras: s.eras, marks: marks, stable: stable}); err != nil {
					t.Fatal(err)
				}
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1+len(stable)+4 {
				t.Errorf("the log directory holds %d entries, want shards.meta and %d shard directories", len(entries), len(stable)+4)
			}
		})
		t.Run(im.name+" damage", func(t *testing.T) {
			dir, _, _ := build(t, im.counts, im.marked...)
			path := filepath.Join(dir, shardMetaName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			hints := bytes.Index(raw, []byte("sum "))
			if hints < 0 || !bytes.Contains(raw[hints:], []byte("\nmark ")) || !bytes.Contains(raw[hints:], []byte("\nstable ")) {
				t.Fatalf("root has no hint section:\n%s", raw)
			}
			open := func(what string, bad []byte, refused bool) {
				t.Helper()
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := OpenSet(dir, nil, 0)
				if refused {
					if err == nil || !strings.Contains(err.Error(), path) {
						t.Errorf("%s: OpenSet = %v, want an error naming %s", what, err, path)
					}
				} else if err != nil {
					t.Errorf("%s: %v", what, err)
				} else if len(s.Marks())+len(s.StableMarks()) != 0 || !s.HintsLost() {
					t.Errorf("%s: marks %v, watermarks %v, lost %v; want no hints", what, s.Marks(), s.StableMarks(), s.HintsLost())
				}
				if s != nil {
					s.Close()
				}
			}
			for i := range raw {
				for _, bits := range []byte{0xFF, 0x01} {
					if i < hints && bits == 0x01 {
						continue // "era 1 4" -> "era 1 5" is an era list, only not this log's
					}
					bad := append([]byte(nil), raw...)
					bad[i] ^= bits
					open(fmt.Sprintf("byte %d ^ %#x", i, bits), bad, i < hints)
				}
				open(fmt.Sprintf("cut to %d bytes", i), raw[:i], i < hints)
			}
		})
	}
}

// TestSetDiscardAndEmpty: Discard drops every shard's unforced tail;
// Empty is true only when no stream holds a record.
func TestSetDiscardAndEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Error("fresh set is not Empty")
	}
	forced := appendKeyed(t, s, 1, []byte("durable"))
	if _, err := s.SyncTo(forced); err != nil {
		t.Fatal(err)
	}
	var unforcedKey uint64
	for key := uint64(2); ; key++ {
		if lsn := appendKeyed(t, s, key, []byte("volatile")); lsn.Stream() != forced.Stream() {
			unforcedKey = key
			break
		}
	}
	if s.Empty() {
		t.Error("set with records reports Empty")
	}
	if err := s.Discard(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSet(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Read(forced); err != nil {
		t.Errorf("forced record lost by Discard: %v", err)
	}
	unforcedStream := s2.StreamsFor(unforcedKey)[0]
	if !s2.byStr[unforcedStream].Empty() {
		t.Errorf("unforced shard %d still holds records after Discard", unforcedStream)
	}
}

// TestOpenSetStableWatermark: Publish records in shards.meta how far
// each stream is stable. The next open reads no record: the first
// forward pass from at or below the watermark — recovery's scan from
// the mark — is the tail check, and so is a pass from the watermark run
// by whatever needs the log's end before one did. Either way the rule
// of each side of the watermark holds: past it a bad frame is a torn
// tail, cut off; below it the log is corrupt, the pass says where, and
// nothing is cut.
func TestOpenSetStableWatermark(t *testing.T) {
	type image struct {
		dir, seg          string
		lsns              []ids.LSN // 300 records: 200 below the watermark, 100 past it
		mark, stable, end ids.LSN
	}
	build := func(t *testing.T) image {
		t.Helper()
		img := image{dir: filepath.Join(t.TempDir(), "p.log")}
		s, err := OpenSet(img.dir, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if i == 200 {
				if _, err := s.SyncAll(); err != nil {
					t.Fatal(err)
				}
				img.mark = img.lsns[100]
				if err := s.Publish(img.lsns[199], map[uint32]ids.LSN{1: img.mark}); err != nil {
					t.Fatal(err)
				}
				img.stable = s.SyncedLSN()
			}
			img.lsns = append(img.lsns, appendKeyed(t, s, 1, bytes.Repeat([]byte{byte(i)}, 100)))
		}
		if _, err := s.SyncAll(); err != nil {
			t.Fatal(err)
		}
		img.end = s.Shards()[0].Log.End()
		img.seg = activeSegPath(t, s.Shards()[0].Log)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return img
	}
	// flip inverts one payload byte of the record at lsn (stream 1's
	// first segment: the file offset of a record is its LSN's offset).
	flip := func(t *testing.T, img image, lsn ids.LSN) {
		t.Helper()
		f, err := os.OpenFile(img.seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		off := int64(lsn.Offset()) + frameMin + 10
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{^b[0]}, off); err != nil {
			t.Fatal(err)
		}
	}
	segBytes := func(t *testing.T, img image) []byte {
		t.Helper()
		b, err := os.ReadFile(img.seg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// open opens the image, which reads nothing, and returns its stream.
	open := func(t *testing.T, img image) *Log {
		t.Helper()
		s, err := OpenSet(img.dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if st := s.Stats(); st.ReadOps != 0 || st.ReadBytes != 0 {
			t.Errorf("open read %d bytes in %d reads, want none", st.ReadBytes, st.ReadOps)
		}
		return s.Shards()[0].Log
	}
	// scan passes over every record from `from` on, as Pass 1 does.
	scan := func(l *Log, from ids.LSN) (n int, err error) {
		err = l.Scan(from, func(Record) error { n++; return nil })
		return n, err
	}
	// appendAfter appends one record and returns its LSN.
	appendAfter := func(l *Log) (ids.LSN, error) { return l.Append(1, []byte("after the tail check")) }

	t.Run("the scan from the mark settles the end", func(t *testing.T) {
		img := build(t)
		if img.stable != img.lsns[200] {
			t.Fatalf("watermark %v, want the 201st record's LSN %v", img.stable, img.lsns[200])
		}
		l := open(t, img)
		if n, err := scan(l, img.mark); err != nil || n != 200 {
			t.Fatalf("scan from the mark: %d records, %v; want 200", n, err)
		}
		st := l.Stats()
		if past := int64(img.end - img.mark); st.ReadBytes < past || st.ReadBytes > past+readBlock {
			t.Errorf("the scan read %d bytes, want the %d past the mark once", st.ReadBytes, past)
		}
		if got := l.End(); got != img.end {
			t.Errorf("log ends at %v, want %v", got, img.end)
		}
		if got := l.Stats().ReadOps - st.ReadOps; got != 0 {
			t.Errorf("End after the scan issued %d device reads, want none", got)
		}
	})
	t.Run("a flipped byte past the watermark is a torn tail", func(t *testing.T) {
		img := build(t)
		flip(t, img, img.lsns[250])
		l := open(t, img)
		if n, err := scan(l, img.mark); err != nil || n != 150 {
			t.Fatalf("scan from the mark: %d records, %v; want the 150 in front of the tear", n, err)
		}
		if got := l.End(); got != img.lsns[250] {
			t.Errorf("log ends at %v, want the tail cut at %v", got, img.lsns[250])
		}
		if fi, err := os.Stat(img.seg); err != nil || fi.Size() != int64(img.lsns[250].Offset()) {
			t.Errorf("segment after the cut: %v, %v; want it ending at %v", fi, err, img.lsns[250])
		}
	})
	t.Run("a flipped byte at the watermark is a torn tail", func(t *testing.T) {
		img := build(t)
		flip(t, img, img.lsns[200])
		l := open(t, img)
		if n, err := scan(l, img.mark); err != nil || n != 100 {
			t.Fatalf("scan from the mark: %d records, %v; want the 100 below the watermark", n, err)
		}
		if got := l.End(); got != img.stable {
			t.Errorf("log ends at %v, want the tail cut at the watermark %v", got, img.stable)
		}
	})
	t.Run("bad frames at the watermark and below it are corruption", func(t *testing.T) {
		for _, first := range []struct {
			name string
			use  func(*Log, image) error
		}{
			{"reported by the scan from the mark", func(l *Log, img image) error { _, err := scan(l, img.mark); return err }},
			{"reported by the first append", func(l *Log, _ image) error { _, err := appendAfter(l); return err }},
		} {
			t.Run(first.name, func(t *testing.T) {
				img := build(t)
				flip(t, img, img.lsns[200])
				flip(t, img, img.lsns[120])
				before := segBytes(t, img)
				err := first.use(open(t, img), img)
				if err == nil || !strings.Contains(err.Error(), img.lsns[120].String()) || !strings.Contains(err.Error(), "corrupt") {
					t.Errorf("%v, want corruption reported at %v", err, img.lsns[120])
				}
				if !bytes.Equal(segBytes(t, img), before) {
					t.Error("the refused log changed the segment")
				}
			})
		}
	})
	t.Run("a flipped byte below the watermark discards nothing", func(t *testing.T) {
		img := build(t)
		flip(t, img, img.lsns[120])
		l := open(t, img)
		// The restart's scan fails stop on it and settles nothing ...
		if _, err := scan(l, img.mark); !errors.Is(err, errChecksum) || !strings.Contains(err.Error(), img.lsns[120].String()) {
			t.Errorf("scan from the mark: %v, want a checksum error at %v", err, img.lsns[120])
		}
		// ... so the first use checks the tail from the watermark, and keeps
		// every durable record.
		if l.End() != img.end {
			t.Errorf("log ends at %v, want every durable record kept up to %v", l.End(), img.end)
		}
		// Any reader that gets there fails stop on it.
		if _, err := scan(l, ids.NilLSN); !errors.Is(err, errChecksum) || !strings.Contains(err.Error(), img.lsns[120].String()) {
			t.Errorf("scan: %v, want a checksum error at %v", err, img.lsns[120])
		}
	})
	t.Run("a segment cut below the watermark is corruption", func(t *testing.T) {
		img := build(t)
		if err := os.Truncate(img.seg, int64(img.lsns[150].Offset())); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSet(img.dir, nil, 0); err == nil || !strings.Contains(err.Error(), img.stable.String()) {
			t.Fatalf("open: %v, want the watermark %v reported missing", err, img.stable)
		}
	})
	t.Run("a reshard keeps the watermarks", func(t *testing.T) {
		img := build(t)
		s, err := OpenSet(img.dir, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		r, err := loadShardMeta(img.dir)
		if err != nil || len(r.stable) != 1 || r.stable[1] != img.stable {
			t.Errorf("watermarks after the reshard = %v, %v; want stream 1 at %v", r.stable, err, img.stable)
		}
	})
	t.Run("a watermark inside a record is corruption", func(t *testing.T) {
		img := build(t)
		r, err := loadShardMeta(img.dir)
		if err != nil {
			t.Fatal(err)
		}
		r.stable[1] = img.stable + 3 // no publish writes one: a record straddles it
		if err := saveShardMeta(img.dir, r); err != nil {
			t.Fatal(err)
		}
		before := segBytes(t, img)
		_, err = scan(open(t, img), img.mark)
		if err == nil || !strings.Contains(err.Error(), img.lsns[200].String()) || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("scan from the mark: %v, want corruption reported at %v", err, img.lsns[200])
		}
		if !bytes.Equal(segBytes(t, img), before) {
			t.Error("the refused log changed the segment")
		}
	})
	t.Run("a scan from above the watermark settles nothing", func(t *testing.T) {
		img := build(t)
		l := open(t, img)
		if n, err := scan(l, img.lsns[250]); err != nil || n != 50 {
			t.Fatalf("scan from %v: %d records, %v; want 50", img.lsns[250], n, err)
		}
		reads := l.Stats().ReadOps
		if got := l.End(); got != img.end {
			t.Errorf("log ends at %v, want %v", got, img.end)
		}
		if l.Stats().ReadOps == reads {
			t.Error("End issued no device read: the scan from above the watermark settled the end")
		}
	})
	t.Run("the first Append, SyncTo or End settles the end first", func(t *testing.T) {
		for _, first := range []struct {
			name string
			use  func(*Log) error
		}{
			{"Append", nil},
			{"SyncTo", func(l *Log) error { _, err := l.SyncTo(l.Start()); return err }},
			{"End", func(l *Log) error { l.End(); return nil }},
		} {
			t.Run(first.name, func(t *testing.T) {
				img := build(t)
				flip(t, img, img.lsns[250])
				l := open(t, img)
				if first.use != nil {
					if err := first.use(l); err != nil {
						t.Fatal(err)
					}
				}
				lsn, err := appendAfter(l)
				if err != nil || lsn != img.lsns[250] {
					t.Fatalf("append at %v, %v; want it at the cut %v", lsn, err, img.lsns[250])
				}
				if rec, err := l.Read(lsn); err != nil || string(rec.Payload) != "after the tail check" {
					t.Errorf("the appended record reads back %q, %v", rec.Payload, err)
				}
			})
		}
	})
	t.Run("Close or Discard of an unsettled log changes no byte", func(t *testing.T) {
		img := build(t)
		flip(t, img, img.lsns[250]) // a torn tail no pass has cut
		before := segBytes(t, img)
		for _, shut := range []func(*Log) error{(*Log).Close, (*Log).Discard} {
			if err := shut(open(t, img)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(segBytes(t, img), before) {
				t.Fatal("shutting an unsettled log down changed its segment")
			}
		}
	})
}
