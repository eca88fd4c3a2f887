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
	"repro/internal/obs"
)

// A log directory's root is the paper's well-known file (Section 4.3):
// it holds the begin-checkpoint LSN of the last published checkpoint
// (the mark recovery's Pass 1 starts from) and the stable watermark the
// log had then (where the open's tail check starts). The root holds
// hints only, under a checksum:
//
//	PHXROOT2 5d3c0f1a   magic, CRC-32 of the lines below
//	mark 1040
//	stable 8812
//
// Both are lower bounds that only save work, so a root that is missing,
// cut short or fails its checksum means no hints at all — "if the LSN
// does not exist, the log is examined from the very beginning", and so
// is the segment — never a guess.

// Set is the name benchmark/pins.go spells the process log by; there is
// one log type.
type Set = Log

// The root file inside a log directory, and the magic heading it.
const rootName, rootMagic = "root", "PHXROOT2"

// root is the content of the root file. lost: a root was there but did
// not check out, so mark and stable are nil.
type root struct {
	mark, stable ids.LSN
	lost         bool
}

// OpenSet opens the process log at dir, creating it if missing: it
// reads the root, verifies segment headers — it reads no record — and
// returns a log whose physical writes and syncs are accounted to model
// (nil: disk.HostModel). The root's stable watermark bounds the tail
// check: a torn tail can begin no earlier, and a bad frame below it is
// corruption. n is the number of log streams, 0 or 1: a process log is
// one stream. A directory in the sharded layout this log
// replaced — a shards.meta root (magic PHXROOT1) or a shard-NNN
// subdirectory — fails the open: there is no reader for it.
func OpenSet(dir string, model disk.Model, n int) (*Log, error) {
	if n != 0 && n != 1 {
		return nil, fmt.Errorf("wal: a process log is one stream, not %d", n)
	}
	r, err := loadRoot(dir)
	if err != nil {
		return nil, err
	}
	if model == nil {
		model = disk.HostModel{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{
		dir:          dir,
		model:        model,
		segmentBytes: DefaultSegmentBytes,
		root:         r,
		m:            obs.WALView(obs.Default()),
	}
	l.syncDone = sync.NewCond(&l.mu)
	if err := l.load(r.stable); err != nil {
		l.closeSegs()
		return nil, err
	}
	return l, nil
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

// Publish durably records the checkpoint that begins at begin where
// the next open finds it: one atomic write replaces the root with
// begin, the mark recovery's scan may start from, and the log's stable
// watermark as of now — the next tail check starts there, and treats a
// bad frame below it as corruption, not a torn tail. Publications are
// serialized and never go backwards: a checkpoint no newer than the
// one already published writes nothing.
func (l *Log) Publish(begin ids.LSN) error {
	l.pubMu.Lock()
	defer l.pubMu.Unlock()
	if begin <= l.mark {
		return nil
	}
	if err := saveRoot(l.dir, root{mark: begin, stable: l.SyncedLSN()}); err != nil {
		return fmt.Errorf("wal: publish checkpoint %v: %w", begin, err)
	}
	l.mark = begin
	return nil
}

// Mark returns the begin-checkpoint LSN last published, else the one
// the log held when it was opened; NilLSN when there is none.
func (l *Log) Mark() ids.LSN {
	l.pubMu.Lock()
	defer l.pubMu.Unlock()
	return l.mark
}

// Stable returns the watermark the root held when the log was opened:
// where its tail check started (nil: none).
func (l *Log) Stable() ids.LSN { return l.stable }

// HintsLost reports that a root was there at open but did not check
// out: the log started with no mark and no stable watermark.
func (l *Log) HintsLost() bool { return l.lost }

// Shards returns the log's one stream.
func (l *Log) Shards() []Shard { return []Shard{{Log: l}} }
