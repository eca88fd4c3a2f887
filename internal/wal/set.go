package wal

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/disk"
	"repro/internal/ids"
)

// Set is the log a process opens: one Log, whose segment files live in
// the log directory, and the directory's root — the paper's well-known
// file (Section 4.3), which holds the begin-checkpoint LSN of the last
// published checkpoint (the mark recovery's Pass 1 starts from) and the
// stable watermark the log had then (where the open's tail check
// starts). The root holds hints only, under a checksum:
//
//	PHXROOT2 5d3c0f1a   magic, CRC-32 of the lines below
//	mark 1040
//	stable 8812
//
// Both are lower bounds that only save work, so a root that is missing,
// cut short or fails its checksum means no hints at all — "if the LSN
// does not exist, the log is examined from the very beginning", and so
// is the segment — never a guess.
type Set struct {
	*Log
	// root is the hints as OpenSet read them: stable and lost stay as
	// they were then; mark is replaced by each publication. pubMu makes
	// a publication one critical section: the file and the mark.
	root
	pubMu sync.Mutex
}

// The root file inside a log directory, and the magic heading it.
const rootName, rootMagic = "root", "PHXROOT2"

// root is the content of the root file. lost: a root was there but did
// not check out, so mark and stable are nil.
type root struct {
	mark, stable ids.LSN
	lost         bool
}

// OpenSet opens the process log at dir, creating it if missing. n is
// the number of log streams, 0 or 1: a process log is one stream. A
// directory in the sharded layout this log replaced — a shards.meta
// root (magic PHXROOT1) or a shard-NNN subdirectory — fails the open:
// there is no reader for it.
func OpenSet(dir string, model disk.Model, n int) (*Set, error) {
	if n != 0 && n != 1 {
		return nil, fmt.Errorf("wal: a process log is one stream, not %d", n)
	}
	r, err := loadRoot(dir)
	if err != nil {
		return nil, err
	}
	l, err := openLog(dir, model, r.stable)
	if err != nil {
		return nil, err
	}
	return &Set{Log: l, root: r}, nil
}

// loadRoot reads the root. A missing file is a root of no hints.
func loadRoot(dir string) (r root, err error) {
	data, err := os.ReadFile(filepath.Join(dir, rootName))
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return r, fmt.Errorf("wal: read root: %w", err)
	}
	head, lines, _ := strings.Cut(string(data), "\n")
	mark, rest, _ := strings.Cut(lines, "\n")
	stable, _, _ := strings.Cut(rest, "\n")
	m, errM := strconv.ParseUint(strings.TrimPrefix(mark, "mark "), 10, 64)
	s, errS := strconv.ParseUint(strings.TrimPrefix(stable, "stable "), 10, 64)
	if head != fmt.Sprintf("%s %08x", rootMagic, crc32.ChecksumIEEE([]byte(lines))) ||
		errM != nil || errS != nil || lines != fmt.Sprintf("mark %d\nstable %d\n", m, s) {
		return root{lost: true}, nil
	}
	return root{mark: ids.LSN(m), stable: ids.LSN(s)}, nil
}

// saveRoot replaces the root in one atomic write (see
// disk.AtomicWriteFile): an open finds the old root or the new one.
func saveRoot(dir string, r root) error {
	lines := fmt.Sprintf("mark %d\nstable %d\n", uint64(r.mark), uint64(r.stable))
	data := fmt.Sprintf("%s %08x\n%s", rootMagic, crc32.ChecksumIEEE([]byte(lines)), lines)
	return disk.AtomicWriteFile(filepath.Join(dir, rootName), []byte(data))
}

// Publish implements Writer: one atomic write replaces the root with the
// checkpoint's begin LSN and the log's stable watermark as of now.
// Publications are serialized and never go backwards: a checkpoint no
// newer than the one already published writes nothing.
func (s *Set) Publish(begin ids.LSN) error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if begin <= s.mark {
		return nil
	}
	if err := saveRoot(s.dir, root{mark: begin, stable: s.SyncedLSN()}); err != nil {
		return fmt.Errorf("wal: publish checkpoint %v: %w", begin, err)
	}
	s.mark = begin
	return nil
}

// Mark implements Writer.
func (s *Set) Mark() ids.LSN {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.mark
}

// Stable returns the watermark the root held when the set was opened:
// where the log's tail check started (nil: none).
func (s *Set) Stable() ids.LSN { return s.stable }

// HintsLost reports that a root was there at open but did not check
// out: the set started with no mark and no stable watermark.
func (s *Set) HintsLost() bool { return s.lost }

// Shards returns the log's one stream.
func (s *Set) Shards() []Shard { return []Shard{{Log: s.Log}} }
