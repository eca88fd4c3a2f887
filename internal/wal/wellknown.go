package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"sort"

	"repro/internal/ids"
)

// The well-known file of paper Section 4.3: "Once a process checkpoint
// has been flushed to the log ... the log manager writes and forces the
// LSN of the begin checkpoint record into a well-known file. This LSN
// always points to a process checkpoint (if exists)."
//
// With a sharded log the one LSN becomes a vector, one mark per
// stream: an 8-byte magic, a count, per-stream (tag, LSN) pairs, and a
// trailing CRC. Recovery scans each stream from its own mark.
//
// The file is written atomically: temp file, fsync, rename, fsync of
// the containing directory — so the file named path always holds a
// complete record even across a crash right after checkpoint (the
// rename is the commit point). A corrupt or missing file makes
// recovery scan from the very beginning, exactly the paper's "If the
// LSN does not exist, the log is examined from the very beginning."

// ErrNoWellKnown reports that the well-known file is absent or
// unreadable, so recovery must scan from the log start.
var ErrNoWellKnown = errors.New("wal: no well-known checkpoint LSN")

// wellKnownMagic heads the file.
const wellKnownMagic = "PHXWKV2\n"

// SaveWellKnownMarks durably records the checkpoint watermark: one LSN
// per stream, each the point that stream's recovery scan may start
// from.
func SaveWellKnownMarks(path string, marks map[uint32]ids.LSN) error {
	streams := make([]uint32, 0, len(marks))
	for s := range marks {
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i] < streams[j] })
	buf := make([]byte, 0, 8+4+12*len(streams)+4)
	buf = append(buf, wellKnownMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(streams)))
	for _, s := range streams {
		buf = binary.LittleEndian.AppendUint32(buf, s)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(marks[s]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := atomicWriteFile(path, buf); err != nil {
		return fmt.Errorf("wal: write well-known file: %w", err)
	}
	return nil
}

// LoadWellKnownMarks reads the checkpoint watermark vector. It returns
// ErrNoWellKnown if the file is missing, short, or corrupt.
func LoadWellKnownMarks(path string) (map[uint32]ids.LSN, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoWellKnown
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read well-known file: %w", err)
	}
	if len(buf) < 16 || string(buf[:8]) != wellKnownMagic {
		return nil, ErrNoWellKnown
	}
	body, crc := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, ErrNoWellKnown
	}
	n := int(binary.LittleEndian.Uint32(body[8:12]))
	if len(body) != 12+12*n {
		return nil, ErrNoWellKnown
	}
	marks := make(map[uint32]ids.LSN, n)
	for i := 0; i < n; i++ {
		off := 12 + 12*i
		s := binary.LittleEndian.Uint32(body[off:])
		marks[s] = ids.LSN(binary.LittleEndian.Uint64(body[off+4:]))
	}
	return marks, nil
}
