package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// TestOpenSetFresh: a fresh set is one stream whose segment files live
// in the log directory itself; appends read back through their LSNs and
// survive a reopen; the key routes nothing.
func TestOpenSetFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if shards := s.Shards(); len(shards) != 1 || shards[0].Log != s {
		t.Fatalf("a set has shards %+v, want its one log", shards)
	}
	var lsns []ids.LSN
	for key := uint64(0); key < 16; key++ {
		lsns = append(lsns, appendKeyed(t, s, key, []byte(fmt.Sprintf("k%d", key))))
	}
	for i, lsn := range lsns {
		if i > 0 && lsn <= lsns[i-1] {
			t.Errorf("LSNs out of order: %v after %v", lsn, lsns[i-1])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) != 1 {
		t.Errorf("the log directory holds segments %v, want one", segs)
	}
	s2, err := OpenSet(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, lsn := range lsns {
		rec, err := s2.Read(lsn)
		if err != nil || !bytes.Equal(rec.Payload, []byte(fmt.Sprintf("k%d", key))) {
			t.Errorf("read %v after reopen = %q, %v", lsn, rec.Payload, err)
		}
	}
}

// TestOpenSetRejectsShardedLayout: a directory holding the root of the
// sharded layout (shards.meta, magic PHXROOT1) or a stream's shard-NNN
// subdirectory is an error naming what was found, and is left as it
// was — there is no reader for that layout.
func TestOpenSetRejectsShardedLayout(t *testing.T) {
	for _, found := range []string{"shards.meta", "shard-001"} {
		dir := filepath.Join(t.TempDir(), "p.log")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var err error
		if found == "shards.meta" {
			err = os.WriteFile(filepath.Join(dir, found), []byte("PHXROOT1 1\nera 1 1\nsum 00000000\n"), 0o644)
		} else {
			err = os.Mkdir(filepath.Join(dir, found), 0o755)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1} {
			if _, err := OpenSet(dir, nil, n); err == nil || !strings.Contains(err.Error(), found) {
				t.Errorf("OpenSet(dir holding %s, %d) = %v, want an error naming it", found, n, err)
			}
		}
		if after, _ := os.ReadDir(dir); len(after) != 1 {
			t.Errorf("rejected open changed the directory: %d entries, want 1", len(after))
		}
	}
}

// TestRootDropsMalformedLines: the root is exactly what saveRoot
// writes. Anything else — a wrong checksum, a trailing token, a missing
// or extra line, a padded number — is no reason to refuse the log: the
// hints are dropped and reported lost.
func TestRootDropsMalformedLines(t *testing.T) {
	write := func(body string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, rootName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, lines := range []string{"mark 16\nstable 16\n", "mark 16 junk\nstable 16\n", "mark 16\n", "mark 16\nstable 16\nmark 16\n",
		"mark 016\nstable 16\n", "stable 16\nmark 16\n", "mark 18446744073709551616\nstable 16\n"} {
		for _, head := range []string{fmt.Sprintf("%s %08x\n", rootMagic, crc32.ChecksumIEEE([]byte(lines))), "PHXROOT1 1\n", ""} {
			s, err := OpenSet(write(head+lines), nil, 0)
			if err != nil {
				t.Fatalf("root %q: %v", head+lines, err)
			}
			if lines == "mark 16\nstable 16\n" && head != "" && head[:8] == rootMagic {
				if s.Mark() != 16 || s.Stable() != 16 || s.HintsLost() {
					t.Errorf("root %q: mark %v, watermark %v, lost %v; want both at 16", head+lines, s.Mark(), s.Stable(), s.HintsLost())
				}
			} else if !s.Mark().IsNil() || !s.Stable().IsNil() || !s.HintsLost() {
				t.Errorf("root %q: mark %v, watermark %v, lost %v; want none, lost", head+lines, s.Mark(), s.Stable(), s.HintsLost())
			}
			s.Close()
		}
	}
}

// TestOpenSetWritesMetaOnlyOnChange: the root changes only with a
// publication. A fresh open writes none — a missing root is a root of
// no hints — and neither does a reopen.
func TestOpenSetWritesMetaOnlyOnChange(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	for _, n := range []int{0, 1, 0} {
		s, err := OpenSet(dir, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		appendKeyed(t, s, 1, []byte("record"))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, rootName)); !os.IsNotExist(err) {
			t.Fatalf("open with n=%d left a root (%v), want none before a publication", n, err)
		}
	}
}

// TestOpenSetShardBound: a process log is one stream; any other count
// is refused up front with an error naming it.
func TestOpenSetShardBound(t *testing.T) {
	for _, n := range []int{2, 4, -1} {
		dir := filepath.Join(t.TempDir(), "p.log")
		if _, err := OpenSet(dir, nil, n); err == nil || !strings.Contains(err.Error(), fmt.Sprint(n)) {
			t.Errorf("OpenSet(dir, nil, %d) = %v, want an error naming %d", n, err, n)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("the refused open with n=%d created the directory", n)
		}
	}
}

// TestRoot: the root is the log's well-known file. The mark and the
// stable watermark round-trip through Publish and OpenSet together;
// publications never go backwards; any damage to the root loses both
// hints and never refuses the log.
func TestRoot(t *testing.T) {
	// build appends a few records, forces them and publishes the last
	// one's LSN as the checkpoint's begin.
	build := func(t *testing.T) (dir string, mark, stable ids.LSN) {
		t.Helper()
		dir = filepath.Join(t.TempDir(), "p.log")
		s, err := OpenSet(dir, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for key := uint64(0); key < 32; key++ {
			mark = appendKeyed(t, s, key, []byte("record"))
		}
		if _, err := s.SyncAll(); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(mark); err != nil {
			t.Fatal(err)
		}
		// An older checkpoint arriving late writes nothing.
		if err := s.Publish(mark - 1); err != nil {
			t.Fatal(err)
		}
		if got := s.Mark(); got != mark {
			t.Fatalf("live mark %v, want %v", got, mark)
		}
		return dir, mark, s.SyncedLSN()
	}
	t.Run("round trip", func(t *testing.T) {
		dir, mark, stable := build(t)
		s, err := OpenSet(dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Mark() != mark || s.Stable() != stable || s.HintsLost() {
			t.Errorf("reopened: mark %v, watermark %v, lost %v; want %v, %v", s.Mark(), s.Stable(), s.HintsLost(), mark, stable)
		}
		// A newer publication replaces the root outright.
		next := appendKeyed(t, s, 0, []byte("begin"))
		if _, err := s.SyncAll(); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(next); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if r, err := loadRoot(dir); err != nil || r != (root{mark: next, stable: s.End()}) {
			t.Errorf("after a second publication: %+v, %v; want mark %v and watermark %v", r, err, next, s.End())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 2 {
			t.Errorf("the log directory holds %d entries, want the root and one segment", len(entries))
		}
	})
	t.Run("damage", func(t *testing.T) {
		dir, _, _ := build(t)
		path := filepath.Join(dir, rootName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte("\nmark ")) || !bytes.Contains(raw, []byte("\nstable ")) {
			t.Fatalf("root has no hints:\n%s", raw)
		}
		open := func(what string, bad []byte) {
			t.Helper()
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenSet(dir, nil, 0)
			if err != nil {
				t.Errorf("%s: %v", what, err)
				return
			}
			if !s.Mark().IsNil() || !s.Stable().IsNil() || !s.HintsLost() {
				t.Errorf("%s: mark %v, watermark %v, lost %v; want no hints", what, s.Mark(), s.Stable(), s.HintsLost())
			}
			s.Close()
		}
		for i := range raw {
			for _, bits := range []byte{0xFF, 0x01} {
				bad := append([]byte(nil), raw...)
				bad[i] ^= bits
				open(fmt.Sprintf("byte %d ^ %#x", i, bits), bad)
			}
			open(fmt.Sprintf("cut to %d bytes", i), raw[:i])
		}
	})
}

// TestSetDiscardAndEmpty: Discard drops the unforced tail; Empty is true
// only when the log holds no record.
func TestSetDiscardAndEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p.log")
	s, err := OpenSet(dir, nil, 1)
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
	unforced := appendKeyed(t, s, 2, []byte("volatile"))
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
	if _, err := s2.Read(unforced); !errors.Is(err, ErrNotFound) {
		t.Errorf("unforced record after Discard: %v, want ErrNotFound", err)
	}
}

// TestOpenSetStableWatermark: Publish records in the root how far the
// log is stable. The next open reads no record: the first
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
				if err := s.Publish(img.mark); err != nil {
					t.Fatal(err)
				}
				img.stable = s.SyncedLSN()
			}
			img.lsns = append(img.lsns, appendKeyed(t, s, 1, bytes.Repeat([]byte{byte(i)}, 100)))
		}
		if _, err := s.SyncAll(); err != nil {
			t.Fatal(err)
		}
		img.end = s.End()
		img.seg = activeSegPath(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return img
	}
	// flip inverts one payload byte of the record at lsn (the first
	// segment: the file offset of a record is its LSN).
	flip := func(t *testing.T, img image, lsn ids.LSN) {
		t.Helper()
		f, err := os.OpenFile(img.seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		off := int64(lsn) + frameMin + 10
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
	// open opens the image, which reads nothing, and returns its log.
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
		return s
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
		if fi, err := os.Stat(img.seg); err != nil || fi.Size() != int64(img.lsns[250]) {
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
		if err := os.Truncate(img.seg, int64(img.lsns[150])); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSet(img.dir, nil, 0); err == nil || !strings.Contains(err.Error(), img.stable.String()) {
			t.Fatalf("open: %v, want the watermark %v reported missing", err, img.stable)
		}
	})
	t.Run("a watermark inside a record is corruption", func(t *testing.T) {
		img := build(t)
		r, err := loadRoot(img.dir)
		if err != nil {
			t.Fatal(err)
		}
		r.stable = img.stable + 3 // no publish writes one: a record straddles it
		if err := saveRoot(img.dir, r); err != nil {
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
