package wal

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/disk"
	"repro/internal/ids"
)

// A sharded log is a log directory plus its root, the shards.meta file:
// everything an open trusts before it reads a segment (DESIGN §12).
//
//	PHXROOT1 2          magic, era count
//	era 1 1             base, count
//	era 2 4
//	sum 5d3c0f1a        CRC-32 of every byte below
//	mark 1 1040         stream, offset
//	stable 1 8812
//
// Each era is a contiguous run of stream tags; the streams of the latest
// era are the appendable shards, earlier eras are read-only history that
// recovery still scans and trim still reclaims. Tags are assigned
// monotonically across eras — never reused — so raw LSN comparison
// orders records first by era (temporal order), then by offset within a
// stream. Stream s lives in the shard-<s> subdirectory; tags start at 1
// (0 is the tag of a bare Log, which no Set contains). The eras say
// which directories hold records: a bad era line fails the open.
//
// Under the checksum are two per-stream hints from the last published
// checkpoint (Set.Publish): mark, where recovery's Pass 1 may start —
// the paper's well-known LSN (Section 4.3), a vector on a sharded log —
// and stable, how far the stream was durable then, where the open-time
// tail check may start. Both are lower bounds that only save work, so a
// hint section that is missing, cut short or fails its checksum means no
// hints at all — "if the LSN does not exist, the log is examined from
// the very beginning", and so is the segment — never a guess.

// Era is one reshard era: streams Base..Base+Count-1.
type Era struct {
	Base  uint32
	Count int
}

// The root file inside a sharded log directory, and the magic heading it.
const shardMetaName, shardMetaMagic = "shards.meta", "PHXROOT1"

// shardDirName is the subdirectory of stream s.
func shardDirName(stream uint32) string {
	return fmt.Sprintf("shard-%03d", stream)
}

// root is the content of shards.meta. hintsLost: it had no hint section
// that checked out, so marks and stable are both empty.
type root struct {
	eras          []Era
	marks, stable map[uint32]ids.LSN
	hintsLost     bool
}

// metaLine parses "<word> <a> <b>", two decimal numbers and nothing
// else: what saveShardMeta writes.
func metaLine(line, word string) (a uint32, b uint64, ok bool) {
	f := strings.Split(line, " ")
	if len(f) != 3 || f[0] != word {
		return 0, 0, false
	}
	a64, errA := strconv.ParseUint(f[1], 10, 32)
	b, errB := strconv.ParseUint(f[2], 10, 64)
	return uint32(a64), b, errA == nil && errB == nil
}

// loadShardMeta reads the root. A missing file is a root of no eras.
func loadShardMeta(dir string) (r root, err error) {
	path := filepath.Join(dir, shardMetaName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return r, fmt.Errorf("wal: read shard meta: %w", err)
	}
	head, rest, _ := strings.Cut(string(data), "\n")
	n, err := strconv.Atoi(strings.TrimPrefix(head, shardMetaMagic+" "))
	if err != nil || n < 1 || head != fmt.Sprintf("%s %d", shardMetaMagic, n) {
		return r, fmt.Errorf("wal: %s: bad magic or era count %q", path, head)
	}
	for i := 0; i < n; i++ {
		line, after, whole := strings.Cut(rest, "\n")
		rest = after
		base, count, ok := metaLine(line, "era")
		if !whole || !ok || base < 1 || count < 1 || count > ids.MaxStream || uint64(base)+count-1 > ids.MaxStream {
			return r, fmt.Errorf("wal: %s: bad era line %q", path, line)
		}
		if last := len(r.eras) - 1; last >= 0 && base <= r.eras[last].Base+uint32(r.eras[last].Count)-1 {
			return r, fmt.Errorf("wal: %s: eras not monotonic at %q", path, line)
		}
		r.eras = append(r.eras, Era{Base: base, Count: int(count)})
	}
	r.marks, r.stable, r.hintsLost = loadHints(rest)
	return r, nil
}

// loadHints parses the hint section: all of it, or nothing.
func loadHints(sec string) (marks, stable map[uint32]ids.LSN, lost bool) {
	sum, lines, _ := strings.Cut(sec, "\n")
	if sum != fmt.Sprintf("sum %08x", crc32.ChecksumIEEE([]byte(lines))) {
		return nil, nil, true
	}
	marks, stable = make(map[uint32]ids.LSN), make(map[uint32]ids.LSN)
	for lines != "" {
		var line string
		line, lines, _ = strings.Cut(lines, "\n")
		into := marks
		stream, off, ok := metaLine(line, "mark")
		if !ok {
			into = stable
			stream, off, ok = metaLine(line, "stable")
		}
		lsn := ids.StreamLSN(stream, ids.LSN(off))
		if !ok || lsn.Stream() != stream || uint64(lsn.Offset()) != off {
			return nil, nil, true
		}
		into[stream] = lsn
	}
	return marks, stable, false
}

// saveShardMeta replaces the root in one atomic write (see
// disk.AtomicWriteFile): an open finds the old root or the new one.
func saveShardMeta(dir string, r root) error {
	var b, hints strings.Builder
	fmt.Fprintf(&b, "%s %d\n", shardMetaMagic, len(r.eras))
	for _, e := range r.eras {
		fmt.Fprintf(&b, "era %d %d\n", e.Base, e.Count)
		for s := e.Base; s < e.Base+uint32(e.Count); s++ {
			if l, ok := r.marks[s]; ok {
				fmt.Fprintf(&hints, "mark %d %d\n", s, uint64(l.Offset()))
			}
			if l, ok := r.stable[s]; ok {
				fmt.Fprintf(&hints, "stable %d %d\n", s, uint64(l.Offset()))
			}
		}
	}
	fmt.Fprintf(&b, "sum %08x\n%s", crc32.ChecksumIEEE([]byte(hints.String())), hints.String())
	return disk.AtomicWriteFile(filepath.Join(dir, shardMetaName), []byte(b.String()))
}
