// Package wal implements the process-local recovery log of Phoenix/App.
//
// Each virtual process owns one log managed by a log manager (paper
// Section 4.1: "We manage disk files on a per-process basis to simplify
// file access. Logging is performed through a log manager in a
// process."). Section 5: "Log records accumulate in a buffer and are
// written at a log force or full buffer." A force
// makes every previously appended record stable, which is what lets the
// optimized logging discipline of Section 3.1 combine the forces of
// several receive messages into the single force at the next send.
//
// The log is a directory of fixed-capacity segment files named by their
// starting LSN. LSNs are positions in one contiguous address space that
// spans segments, so records keep their LSNs forever; once every
// context's restart point has moved past a segment (checkpointing,
// Section 4), TrimHead deletes the dead prefix — the space reclamation
// that makes the paper's long-lived components operable.
//
// The package is schema-agnostic: it frames opaque typed payloads with
// lengths and checksums. The Phoenix runtime defines the payload
// encodings. A torn record at the tail — a crash in the middle of a
// physical write — is detected by checksum on the first pass over the
// tail (ScanFrom), and the log is truncated to the last complete record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/bits"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
)

// RecordType tags a log record's payload schema. The WAL treats it as
// opaque; the runtime defines the values (see package core).
type RecordType uint8

// Record is a single log record as returned by Read and Scan. Prev is
// the previous record of its chain (AppendLinked; NilLSN: none), Size
// the bytes it occupies in the log, frame included.
type Record struct {
	LSN     ids.LSN
	Type    RecordType
	Payload []byte
	Prev    ids.LSN
	Size    int
}

// Stats counts logical and physical log activity. The experiment
// harness reports Forces for paper Table 8 ("Number of Forces").
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Forces is the number of log forces that reached the device
	// (forces with no dirty data are free and not counted).
	Forces int64
	// PhysicalWrites is the number of buffer flushes to a file.
	PhysicalWrites int64
	// BytesWritten is the total payload+framing bytes flushed.
	BytesWritten int64
	// Segments is the current number of segment files.
	Segments int
	// TrimmedBytes counts log space reclaimed by TrimHead.
	TrimmedBytes int64
	// ReadOps counts device reads since the log was opened — one per
	// read-ahead block fetched; the open reads none — and ReadBytes the
	// bytes they returned.
	ReadOps, ReadBytes int64
	// AppendBusyNanos is the cumulative wall time spent inside the
	// append critical section (encode, frame, roll) with the log mutex
	// held. One mutex admits one append at a time, so appends divided
	// by AppendBusyNanos bounds the append throughput the log can
	// sustain — independent of how many CPUs the measuring host happens
	// to have.
	AppendBusyNanos int64
	// SyncBusyNanos is the cumulative wall time of device flush+sync
	// operations on this log's files. Together with AppendBusyNanos it
	// is the busy time of the log's serial resources (one append mutex,
	// one device file).
	SyncBusyNanos int64
}

const (
	segHeaderSize = 16
	magic         = "PHXSEG2\n"
	maxBuffered   = 1 << 20 // flush (without sync) past 1 MiB of buffer

	// firstLSN is where a fresh log starts; LSN 0 stays the nil value.
	firstLSN = ids.LSN(16)
)

// A record's frame: uvarint payload length; CRC-32C (the CPU computes
// it) of everything behind it, in one pass over contiguous bytes; type
// byte; uvarint distance back to the previous record of the same chain
// (0: none; the LSNs' difference); the payload.
// frameMin is the shortest frame, frameMax the longest header.
const (
	frameMin = 1 + 4 + 1 + 1
	frameMax = 2*binary.MaxVarintLen64 + 4 + 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DefaultSegmentBytes is the roll-over threshold for segment files.
const DefaultSegmentBytes = 4 << 20

var (
	// ErrNotFound reports a read at an LSN with no record (including
	// LSNs trimmed away).
	ErrNotFound = errors.New("wal: no record at LSN")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrStopScan can be returned by a Scan callback to stop early
	// without Scan reporting an error.
	ErrStopScan = errors.New("wal: stop scan")
	errNoHeader = errors.New("wal: no segment header")
)

// segment is one on-disk file covering LSNs [start, start+size). Only
// the active (last) segment is open, as Log.f: the log synced and
// closed every other one when it rolled past it.
type segment struct {
	path  string
	start ids.LSN
	size  int64 // record bytes in the file (excluding the header)
}

func (s *segment) end() ids.LSN { return s.start + ids.LSN(s.size) }

// Log is a process-local recovery log. It is safe for concurrent use.
// Buffer and segment bookkeeping serialize on a mutex, but the device
// sync itself runs with the mutex released, so Append never blocks
// behind an in-flight force. Concurrent force requests combine (the
// paper's Section 3.1): the first requester leads the device sync and
// later ones ride it; with StartGroupCommit a fresh leader first holds
// a commit window so more of them arrive in time (group.go). A failed
// segment write, sync or roll stops the log for good.
type Log struct {
	dev          disk.Device // every file operation of the log and its root
	dir          string
	model        disk.Model
	segmentBytes int64
	// While unchecked, the end is provisional (bufBase, synced: the file's)
	// till a pass from at or below tail, max(watermark, tailSeg), ends.
	tail, tailSeg ids.LSN
	unchecked     atomic.Bool

	mu       sync.Mutex
	segs     []*segment // ascending by start; last is active
	f        disk.File  // the active segment's file: the log's one open file
	syncFile disk.File  // the file the sync in flight is on: a roll that seals it leaves it open for that sync to close
	buf      []byte
	encBuf   []byte      // grow-only scratch for AppendLinked encoders
	bufBase  ids.LSN     // LSN of buf[0]
	synced   ids.LSN     // stable watermark; never below the active segment's start
	syncing  bool        // a sync is in flight: a leader in its commit window or its device sync, or the tail check's cut
	syncDone *sync.Cond  // broadcast (on mu) when the leader is done
	waiters  int         // force requests behind the leader that no finished sync covers
	late     int         // of those, the ones whose records the leader's flush missed
	leadEnd  ids.LSN     // what the leader's sync covers (exclusive); nil until it flushes
	window   disk.Clock  // non-nil once StartGroupCommit ran: fresh leaders hold commitWindow on it
	failed   error       // sticky: a segment write, sync or roll failed, the watermark can no longer be trusted
	closed   atomic.Bool // set under mu; a Reader serving from the block it holds loads it lock-free
	stats    Stats
	m        *obs.WALMetrics

	// root is the hints as OpenSet read them: stable and lost stay as
	// they were then. mark starts at its mark and is replaced by each
	// publication once its file is written; pubMu serializes the
	// publications, and Mark reads mark without it, so a reader never
	// waits on a publication's file I/O.
	root
	mark  atomic.Uint64 // ids.LSN
	pubMu sync.Mutex
}

func segName(start ids.LSN) string {
	return fmt.Sprintf("%020d.seg", uint64(start))
}

// load reads the segment list; with create, an empty directory gets its
// first segment and a last one at or above the watermark with no header
// (a create cut short) is created again; else the first fails and the
// second is passed over. Below the watermark a missing header is damage.
func (l *Log) load(stable ids.LSN, create bool) error {
	entries, err := l.dev.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	var starts []ids.LSN
	for _, e := range entries {
		name := e.Name()
		// The sharded layout this log replaced kept its records under a
		// shards.meta root (magic PHXROOT1) in shard-NNN directories:
		// there is no reader for it, and an empty log beside it would
		// hide them.
		if name == "shards.meta" || (e.IsDir() && strings.HasPrefix(name, "shard-")) {
			return fmt.Errorf("wal: %s holds %s, part of a sharded (PHXROOT1) log: not a one-stream log directory", l.dir, name)
		}
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			return fmt.Errorf("wal: stray segment name %q", name)
		}
		starts = append(starts, ids.LSN(n))
	}
	slices.Sort(starts)

	for i, start := range starts {
		seg, f, err := l.openSegment(start)
		if cut := errors.Is(err, errNoHeader) && i == len(starts)-1 && start >= stable; cut && create {
			seg, f, err = l.createSegment(start)
		} else if cut {
			break
		}
		if err != nil {
			return err
		}
		if l.f != nil {
			l.f.Close() // only the active (last) segment stays open
		}
		l.f = f
		if len(l.segs) > 0 && l.active().end() != seg.start {
			return fmt.Errorf("wal: gap between segments %v and %v", l.active().end(), seg.start)
		}
		l.segs = append(l.segs, seg)
	}
	if len(l.segs) == 0 {
		if !create {
			return fmt.Errorf("wal: %s holds no log", l.dir)
		}
		seg, f, err := l.createSegment(firstLSN)
		if err != nil {
			return err
		}
		l.segs, l.f, stable = []*segment{seg}, f, ids.NilLSN
	}
	// Only the active (last) segment can have a torn tail, and only past
	// the stable watermark; the first pass over it finds where it ends.
	active := l.active()
	if active.end() < stable {
		return fmt.Errorf("wal: the log ends at %v, below its stable watermark %v: the log is corrupt", active.end(), stable)
	}
	l.tail, l.tailSeg = max(stable, active.start), active.start // tailSeg: the active segment's start
	l.bufBase, l.synced = active.end(), active.end()
	l.unchecked.Store(l.tail < active.end())
	return nil
}

// createSegment makes the segment at start and returns it with its file
// open. Its header and its directory entry are durable before any record lands in it.
func (l *Log) createSegment(start ids.LSN) (*segment, disk.File, error) {
	path := filepath.Join(l.dir, segName(start))
	f, err := l.dev.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err = f.WriteAt(segHeader(start), 0); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = l.dev.SyncDir(l.dir)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	return &segment{path: path, start: start}, f, nil
}

// segHeader is the header of the segment at start: magic, start LSN.
func segHeader(start ids.LSN) []byte {
	return binary.LittleEndian.AppendUint64([]byte(magic), uint64(start))
}

func (l *Log) openSegment(start ids.LSN) (*segment, disk.File, error) {
	path := filepath.Join(l.dir, segName(start))
	f, err := l.dev.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open segment: %w", err)
	}
	// A create cut short leaves a file shorter than its header, or, when
	// its size reached the disk and its data did not, a header of zeros.
	fi, err := f.Stat()
	hdr := make([]byte, segHeaderSize)
	if err == nil && fi.Size() < segHeaderSize {
		err = fmt.Errorf("%w in %s: %d bytes", errNoHeader, path, fi.Size())
	} else if err == nil {
		if _, err = f.ReadAt(hdr, 0); err == nil && string(hdr) == string(make([]byte, segHeaderSize)) {
			err = fmt.Errorf("%w in %s: zeros", errNoHeader, path)
		} else if err == nil && string(hdr) != string(segHeader(start)) {
			err = fmt.Errorf("wal: bad segment header in %s: %q", path, hdr)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &segment{path: path, start: start, size: fi.Size() - segHeaderSize}, f, nil
}

// ready settles the log's end if no pass has: Append, the forces, End and
// SyncedLSN (the file's end if the check fails) need it, and nothing is
// appended behind unchecked bytes. Once settled it is one atomic load.
func (l *Log) ready() error {
	if !l.unchecked.Load() {
		return nil
	}
	return l.Scan(l.tail, func(Record) error { return nil })
}

// endTail settles the log's end at `at`, where the tail check that began
// at from stopped: at the file's end (err nil), or at a bad frame — past
// the tail a torn tail, cut off; below it damage to durable records, fail
// stop. If nothing parses at the watermark, the segment's start decides.
func (l *Log) endTail(from, at ids.LSN, err error) error {
	switch {
	case err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, errChecksum):
		return err
	case err != nil && at < l.tail:
		return fmt.Errorf("wal: the log is corrupt below %v, where a torn tail can begin: %w", l.tail, err)
	case err != nil && at == l.tail && l.tailSeg < at && l.tailSeg < from:
		return l.Scan(l.tailSeg, func(Record) error { return nil })
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	s := l.active()
	if !l.unchecked.Swap(false) || at >= s.end() {
		return nil // an end another pass settled first stands
	}
	if err = l.f.Truncate(segHeaderSize + int64(at-s.start)); err == nil {
		s.size, l.bufBase, l.synced = int64(at-s.start), at, at
		f := l.f // synced as the one sync in flight, with the mutex released (see syncLocked)
		l.syncing, l.syncFile = true, f
		l.mu.Unlock()
		err = f.Sync()
		l.mu.Lock()
		l.syncing, l.syncFile = false, nil
		if f != l.f {
			f.Close()
		}
		l.syncDone.Broadcast()
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: cut torn tail at %v, log stopped: %w", at, err)
	}
	return l.failed
}

// active returns the tail segment (always present while open).
func (l *Log) active() *segment { return l.segs[len(l.segs)-1] }

// AppendInto is AppendLinked with no chain: key routes nothing.
func (l *Log) AppendInto(key uint64, t RecordType, enc PayloadEncoder) (ids.LSN, error) {
	return l.AppendLinked(key, t, enc, nil)
}

// Append adds a record to the log buffer and returns its LSN. The
// record is not stable until the next force (or until recovery-time
// reads flush it to a file, which still does not sync it). Append
// does not retain payload and, in steady state, does not allocate:
// frame and payload land directly in the log buffer, and the checksum
// runs over them there.
func (l *Log) Append(t RecordType, payload []byte) (ids.LSN, error) {
	if err := l.ready(); err != nil {
		return ids.NilLSN, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.down(); err != nil {
		return ids.NilLSN, err
	}
	start := obs.Stopwatch()
	lsn, err := l.appendLocked(t, payload, ids.NilLSN)
	l.stats.AppendBusyNanos += obs.Stopwatch() - start
	return lsn, err
}

func (l *Log) appendLocked(t RecordType, payload []byte, prev ids.LSN) (ids.LSN, error) {
	// LSNs run on across segment files: a roll does not move this one.
	lsn := l.bufBase + ids.LSN(len(l.buf))
	var dist uint64
	if !prev.IsNil() {
		dist = uint64(lsn - prev)
	}
	// Records never straddle segment files: if this record would push
	// the active segment past its capacity, roll first, so the record
	// begins the new segment. (An oversized single record gets a segment
	// to itself and may exceed the threshold.) The roll seals the old
	// segment — flushes, syncs and closes it, and the watermark moves to
	// its end — so every segment but the active one is durable and
	// closed. No force requested the seal: like the new header's sync,
	// it is not counted or charged to the disk model; a failure stops the log.
	recLen := int64(uvarintLen(uint64(len(payload))) + 1 + uvarintLen(dist) + 4 + len(payload))
	s := l.active()
	if s.size+int64(len(l.buf))+recLen > l.segmentBytes &&
		s.size+int64(len(l.buf)) > 0 {
		if err := l.flushLocked(); err != nil {
			return ids.NilLSN, err
		}
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: seal segment %v, log stopped: %w", s.start, err)
			return ids.NilLSN, l.failed
		}
		l.synced = s.end()
		next, f, err := l.createSegment(s.end())
		if err != nil {
			l.failed = fmt.Errorf("wal: roll to segment %v, log stopped: %w", s.end(), err)
			return ids.NilLSN, l.failed
		}
		if l.f != l.syncFile {
			l.f.Close()
		}
		l.segs, l.f = append(l.segs, next), f
	}

	// Frame and checksum are built directly inside l.buf (a stack frame
	// scratch escapes via the checksum/write calls and becomes a
	// per-record allocation).
	l.buf = binary.AppendUvarint(l.buf, uint64(len(payload)))
	crcAt := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, byte(t))
	l.buf = binary.AppendUvarint(l.buf, dist)
	l.buf = append(l.buf, payload...)
	binary.LittleEndian.PutUint32(l.buf[crcAt:], crc32.Update(0, crcTable, l.buf[crcAt+4:]))
	l.stats.Appends++
	l.m.Appends.Inc()
	l.m.AppendBytes.Observe(int64(len(payload)))
	if len(l.buf) >= maxBuffered {
		if err := l.flushLocked(); err != nil {
			return ids.NilLSN, err
		}
	}
	return lsn, nil
}

// AppendLinked appends a record whose payload is produced by enc (see
// PayloadEncoder). The payload is built in a grow-only scratch buffer
// the log owns and framed from there, so the encode+append path
// allocates nothing in steady state. enc runs under the log mutex: it
// must not call back into the log, and must not retain the slice it is
// given or the one it returns.
//
// key is the appending context's CompID (0: a process-wide record);
// it routes nothing — a process has one log.
//
// A non-nil head makes the record the newest of a chain: its frame
// carries the distance back to the LSN in *head (nil: none), and *head
// becomes this record's LSN — here, because only the log knows a
// record's LSN, and only under its mutex; atomically, because the
// chain's owner reads it from goroutines that do not append.
func (l *Log) AppendLinked(key uint64, t RecordType, enc PayloadEncoder, head *atomic.Uint64) (ids.LSN, error) {
	if err := l.ready(); err != nil {
		return ids.NilLSN, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.down(); err != nil {
		return ids.NilLSN, err
	}
	start := obs.Stopwatch()
	payload, err := enc.AppendPayload(l.encBuf[:0])
	if err != nil {
		return ids.NilLSN, err
	}
	// Keep the (possibly grown) scratch for the next record, but let an
	// occasional giant payload go to the collector rather than pinning
	// its capacity forever.
	if cap(payload) <= maxBuffered {
		l.encBuf = payload[:0]
	} else {
		l.encBuf = nil
	}
	prev := ids.NilLSN
	if head != nil {
		prev = ids.LSN(head.Load())
	}
	lsn, err := l.appendLocked(t, payload, prev)
	if err == nil && head != nil {
		head.Store(uint64(lsn))
	}
	l.stats.AppendBusyNanos += obs.Stopwatch() - start
	return lsn, err
}

// flushLocked writes the buffer into the active segment without
// syncing. Append's roll logic guarantees it fits.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 || l.failed != nil {
		return l.failed // a stopped log writes nothing more
	}
	s := l.active()
	n := int64(len(l.buf))
	if _, err := l.f.WriteAt(l.buf, segHeaderSize+s.size); err != nil {
		l.failed = fmt.Errorf("wal: flush, log stopped: %w", err)
		return l.failed
	}
	l.model.Write(int(n))
	s.size += n
	l.buf = l.buf[:0]
	l.bufBase += ids.LSN(n)
	l.stats.PhysicalWrites++
	l.stats.BytesWritten += n
	l.m.PhysicalWrites.Inc()
	l.m.BytesWritten.Add(n)
	return nil
}

// SyncOutcome classifies how a force request was satisfied. Callers
// that keep per-site force accounting (core's Tables 4-5 counters)
// count a site only on SyncIssued, so the per-site sum stays equal to
// the device-sync count even when requests combine.
type SyncOutcome uint8

const (
	// SyncClean: the requested records were already stable — no
	// waiting, no device I/O (counted under wal.clean_forces).
	SyncClean SyncOutcome = iota
	// SyncIssued: this request issued (or led) the device sync.
	SyncIssued
	// SyncCombined: the request was covered by a device sync another
	// request issued — the paper's combined force (Section 3.1).
	SyncCombined
)

// down reports why the log takes no more appends or forces: it is
// closed, or a device sync failed. After a failed fsync the kernel may
// have dropped the dirty pages and answer the next fsync with success,
// so the error is sticky — fail-stop, never retry and carry on.
func (l *Log) down() error {
	if l.closed.Load() {
		return ErrClosed
	}
	return l.failed
}

// SyncAll makes every appended record stable. Forcing a clean log is
// free and not counted in Stats.Forces.
func (l *Log) SyncAll() (SyncOutcome, error) { return l.syncTarget(noLimit) }

// SyncTo blocks until the record appended at lsn — and every record
// before it — is stable, and reports how. An lsn already covered by
// the stable watermark (or NilLSN) returns immediately as a clean
// force, even if later records are dirty: that is the over-waiting the
// LSN-aware API eliminates.
func (l *Log) SyncTo(lsn ids.LSN) (SyncOutcome, error) {
	// The watermark only ever takes record-boundary values, so
	// synced > lsn means the record starting at lsn is fully durable.
	return l.syncTarget(lsn + 1)
}

// SyncedLSN returns the stable watermark: every record below it is
// durable.
func (l *Log) SyncedLSN() ids.LSN {
	_ = l.ready()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// syncTarget blocks until the stable watermark reaches target (an
// exclusive log position; at most the end) — the only way an LSN
// becomes durable. While a leader is at work, requesters wait for it and
// ride its sync if it covers them; a requester that finds no leader
// becomes one, syncs the whole tail and wakes the rest.
func (l *Log) syncTarget(target ids.LSN) (SyncOutcome, error) {
	if err := l.ready(); err != nil {
		return SyncClean, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.down(); err != nil {
		return SyncClean, err
	}
	target = min(target, l.bufBase+ids.LSN(len(l.buf)))
	if l.synced >= target {
		l.m.CleanForces.Inc()
		return SyncClean, nil
	}
	arrived := obs.Stopwatch()
	rode := false
	for l.syncing && l.synced < target && l.down() == nil {
		if !rode {
			rode = true
			l.waiters++
		}
		// The leader's flush takes everything appended before it, and a
		// request's record is appended before the request is made.
		if !l.leadEnd.IsNil() && target > l.leadEnd {
			l.late++
		}
		l.syncDone.Wait()
	}
	if l.synced >= target {
		// The leader whose sync covered this request took it off the
		// waiter count. Stable is stable, even if the log closed since.
		l.m.GroupSyncsSaved.Inc()
		l.m.GroupWaitMicros.Observe((obs.Stopwatch() - arrived) / 1e3)
		return SyncCombined, nil
	}
	if err := l.down(); err != nil {
		return SyncClean, err
	}
	if rode {
		l.waiters--
	}
	l.syncing, l.late, l.leadEnd = true, 0, ids.NilLSN
	waited := rode
	if l.window != nil && !rode {
		// The commit window (group.go): nobody else can start a sync
		// meanwhile, and committers append and line up behind this one.
		l.mu.Unlock()
		l.window.Sleep(commitWindow)
		l.mu.Lock()
		waited = true
	}
	// SyncBusyNanos and wal.force_micros hold device time only: arrival
	// is the sync's start unless this leader waited first (DESIGN §6).
	start := arrived
	if waited {
		start = obs.Stopwatch()
	}
	end, err := l.syncLocked(start)
	l.syncing = false
	l.syncDone.Broadcast()
	if err != nil {
		return SyncClean, err
	}
	l.m.GroupBatchSize.Observe(int64(1 + l.waiters - l.late))
	l.waiters = l.late
	l.m.GroupWaitMicros.Observe((end - arrived) / 1e3)
	return SyncIssued, nil
}

// syncLocked is the leader's device sync: it covers everything
// appended so far, all of it in the one file it flushes into (every
// other segment was synced when the log rolled past it). Called with
// l.mu held and l.syncing set; the mutex is RELEASED during the device
// sync — so Append never blocks behind an in-flight force — and retaken
// to publish the new watermark. start is the stopwatch reading the
// sync's busy time counts from; the reading that ends it is returned
// for the caller's own arrival-to-stable sum.
func (l *Log) syncLocked(start int64) (end int64, err error) {
	if err := l.down(); err != nil {
		return 0, err // Discard struck during the commit window, or a roll's seal failed
	}
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	target, f := l.bufBase, l.f
	l.leadEnd, l.syncFile = target, f
	l.mu.Unlock()
	l.model.Sync()
	err = f.Sync()
	l.mu.Lock()
	l.syncFile = nil
	if f != l.f {
		f.Close() // a roll sealed it mid-sync and left it to this sync
	}
	if l.closed.Load() {
		return 0, ErrClosed // Discard struck during the device sync
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: sync failed, log stopped: %w", err)
		return 0, l.failed
	}
	l.synced = max(l.synced, target) // a roll mid-sync may have moved it past target
	end = obs.Stopwatch()
	l.stats.Forces++
	l.stats.SyncBusyNanos += end - start
	l.m.Forces.Inc()
	l.m.ForceMicros.Observe((end - start) / 1e3)
	return end, nil
}

// Flush writes buffered records to the active file without syncing. Paper
// Section 4.3: "There is no need to force the log immediately after
// either a state record or a process checkpoint is written" — but
// recovery-time reads need the bytes in the file.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	return l.flushLocked()
}

// End returns the LSN one past the last appended record.
func (l *Log) End() ids.LSN {
	_ = l.ready()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bufBase + ids.LSN(len(l.buf))
}

// Start returns the LSN of the oldest retained record position.
func (l *Log) Start() ids.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].start
}

// Empty reports whether the log has no records at all (fresh log,
// nothing ever appended or everything trimmed).
func (l *Log) Empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bufBase+ids.LSN(len(l.buf)) == l.segs[0].start
}

// findSegment returns the segment containing lsn, or nil.
func (l *Log) findSegment(lsn ids.LSN) *segment {
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].end() > lsn })
	if i == len(l.segs) || lsn < l.segs[i].start {
		return nil
	}
	return l.segs[i]
}

// Read returns the record at lsn. It flushes the buffer first so that
// records appended but not yet forced are readable. The payload is the
// caller's to keep: it is read, without read-ahead, into its own memory.
func (l *Log) Read(lsn ids.LSN) (Record, error) {
	if err := l.Flush(); err != nil {
		return Record{}, err
	}
	r := Reader{l: l, limit: noLimit}
	return r.read(lsn)
}

// NewReader returns a positioned reader for a consumer holding LSNs a
// scan reported (a worker walking chains); the first read allocates the
// block.
func (l *Log) NewReader() *Reader {
	return &Reader{l: l, block: readBlock, limit: noLimit}
}

// readBlock is the read-ahead unit of every reader: one device read
// fetches this much of a segment, and the records in it are served
// without a lock or a system call each.
const (
	readBlock = 16 << 10
	holdMax   = 64 * readBlock // the longest span Reader.Hold keeps
)

// noLimit is the Reader.limit of a reader that is not a bounded view.
const noLimit = ^ids.LSN(0)

// errChecksum is wrapped, with the LSN, when the bytes there are not a
// record: a failed checksum, or a frame no append writes.
var errChecksum = errors.New("wal: checksum mismatch")

// Reader turns log bytes into records — the one place that parses a
// frame and verifies its checksum, under cursors (the tail check too),
// Read and positioned reads alike. It holds one block of one segment
// and refills it only when asked for a record the block does not hold.
// A Record's Payload aliases the block and is valid until the next
// read. A Reader is not safe for concurrent use; every consumer owns
// its own.
type Reader struct {
	l     *Log    // the log it reads
	block int     // bytes a refill asks for (more for a longer record)
	limit ids.LSN // a record must end at or before it (a cursor's snapshot end)
	blk   []byte  // one segment's bytes from LSN base on
	base  ids.LSN
	reads int64 // device reads this reader issued
}

// ReadAt returns the record at lsn — an LSN a Scan or Cursor reported,
// or the Prev of a record read, so the record is in its file and nothing
// needs flushing. A reader kept across reads of nearby LSNs serves them
// from one device read, whichever way the LSNs run.
func (r *Reader) ReadAt(lsn ids.LSN) (Record, error) { return r.read(lsn) }

// Reads returns the device reads the reader has issued.
func (r *Reader) Reads() int64 { return r.reads }

// Hold fills the block, in one device read, with every record from the
// one at lo to the one at hi, so a worker walking many contexts'
// interleaved chains is served from memory until a read outside the span
// refills the block as usual. The span ([lo, hi] plus a block for the
// record at hi, cut at the segment's end) is held only when it lies in
// one segment and is at most holdMax — the most a reader pins and one
// hold of the log mutex reads. A hint: reads report a bad log.
func (r *Reader) Hold(lo, hi ids.LSN) {
	if hi < lo || int64(hi-lo) > int64(holdMax-r.block) {
		return
	}
	block := r.block
	r.block += int(hi - lo)
	r.blk = r.blk[:0] // a fresh block, wherever the last one was
	_, _ = r.window(lo, uint64(hi-lo)+1)
	r.block = block
}

func (r *Reader) read(lsn ids.LSN) (Record, error) {
	// A block may outlive the bytes it was read from: a crash's device
	// may cut flushed records that were never forced.
	if r.l != nil && r.l.closed.Load() {
		return Record{}, ErrClosed
	}
	b, err := r.window(lsn, frameMin)
	var n, dist uint64
	var k, d int
	for err == nil {
		if n, k = binary.Uvarint(b); k > 0 && len(b) > k+5 {
			dist, d = binary.Uvarint(b[k+5:])
		}
		if (k != 0 && d != 0) || len(b) >= frameMax {
			break
		}
		// The block ends inside the header: the segment has the rest,
		// or the frame is torn.
		b, err = r.window(lsn, uint64(len(b))+1)
	}
	if err != nil {
		return Record{}, err
	}
	// No append writes a uvarint over ten bytes long or padded with a
	// zero byte, nor links back past the start of any log.
	h := k + 5 + d
	if k < 0 || d < 0 || (k > 1 && b[k-1] == 0) || (d > 1 && b[h-1] == 0) || dist > uint64(lsn-firstLSN) {
		return Record{}, fmt.Errorf("%w at %v (not a frame)", errChecksum, lsn)
	}
	// The length is held against the view here and the segment in
	// window before any buffer is sized by it: a torn frame may claim
	// any length a uvarint can.
	if room := uint64(r.limit - lsn); uint64(h) > room || n > room-uint64(h) {
		return Record{}, fmt.Errorf("%w: %v (record extends past end)", ErrNotFound, lsn)
	}
	size := uint64(h) + n
	if b, err = r.window(lsn, size); err != nil {
		return Record{}, err
	}
	if crc32.Update(0, crcTable, b[k+4:size]) != binary.LittleEndian.Uint32(b[k:]) {
		return Record{}, fmt.Errorf("%w at %v", errChecksum, lsn)
	}
	rec := Record{LSN: lsn, Type: RecordType(b[k+4]), Payload: b[h:size], Size: int(size)}
	if dist != 0 {
		rec.Prev = lsn - ids.LSN(dist)
	}
	return rec, nil
}

// window returns the log's bytes from lsn on, at least need of them:
// out of the block when it holds them, else after one device read of
// max(need, r.block) bytes (or what the segment has) that makes the
// block start at lsn — a record straddling the old block's edge leads
// the new one, a record longer than a block is read whole. A miss less
// than a block below the block — a chain walked newest to oldest —
// extends it backwards instead: the read ends where the block starts
// and the block's first r.block bytes stay behind it, so the walk
// passes over each byte once and a record straddling the old start is
// whole. The active segment is read through the log's open file, a
// sealed one through its path, opened for the read. The read holds the
// log mutex: TrimHead and Close cannot pull the file away.
func (r *Reader) window(lsn ids.LSN, need uint64) ([]byte, error) {
	if lsn >= r.base && need <= uint64(len(r.blk)) && uint64(lsn-r.base) <= uint64(len(r.blk))-need {
		return r.blk[lsn-r.base:], nil
	}
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return nil, ErrClosed
	}
	old := r.blk[:min(len(r.blk), r.block)]
	r.blk = r.blk[:0]
	s := l.findSegment(lsn)
	if s == nil || uint64(s.end()-lsn) < need {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, lsn)
	}
	from, n := lsn, int(min(max(need, uint64(r.block)), uint64(s.end()-lsn)))
	if len(old) > 0 && lsn < r.base && r.base <= s.end() && uint64(r.base-lsn) <= uint64(r.block) &&
		uint64(r.base-lsn)+uint64(len(old)) >= need {
		from = max(s.start+ids.LSN(r.block), r.base) - ids.LSN(r.block)
		n = int(r.base - from)
	} else {
		old = nil
	}
	if cap(r.blk) < n+len(old) {
		r.blk = make([]byte, 0, max(n+len(old), r.block))
	}
	blk := r.blk[:n+len(old)]
	copy(blk[n:], old) // old may be blk's own head: moved up before the read lands there
	f, err := l.f, error(nil)
	if s != l.active() { // sealed, so closed: opened for this read
		if f, err = l.dev.Open(s.path); err == nil {
			defer f.Close()
		}
	}
	if err == nil {
		_, err = f.ReadAt(blk[:n], segHeaderSize+int64(from-s.start))
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read at %v: %w", lsn, err)
	}
	r.blk, r.base = blk, from
	r.reads++
	l.stats.ReadOps++
	l.stats.ReadBytes += int64(n)
	l.m.ReadOps.Inc()
	l.m.ReadBytes.Add(int64(n))
	return r.blk[lsn-from:], nil
}

// Scan calls fn for every record from lsn `from` (or the log start if
// from is nil or trimmed away) to the end of the log as it was when
// Scan began, in LSN order: a ScanFrom cursor driven to its end. fn
// may return ErrStopScan to stop early without an error.
//
// The Record's Payload is only valid for the duration of the callback
// (the cursor's contract): a callback that retains payload bytes must
// copy them.
func (l *Log) Scan(from ids.LSN, fn func(Record) error) error {
	c, err := l.ScanFrom(from)
	if err != nil {
		return err
	}
	for {
		rec, ok, err := c.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(rec); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
}

// Cursor is a stateful forward iterator over the log, as returned by
// ScanFrom. It hands out one record per Next, so several consumers
// (recovery passes, concurrent readers of disjoint ranges) can each
// hold their own position without coordinating. A cursor is NOT safe
// for concurrent use by multiple goroutines; concurrency comes from
// giving each consumer its own cursor, which the log (safe for
// concurrent use) serves independently.
type Cursor struct {
	r   Reader  // limit: the log end at ScanFrom time
	lsn ids.LSN // position of the next record to return
	// The tail check (see ScanFrom) began at from, stops at the tail till it
	// lands there, then runs on to end (nil: none, or done): Log.endTail.
	from, end ids.LSN
}

// ScanFrom returns a cursor positioned at lsn (or the log start if lsn
// is nil or trimmed away). The cursor sees the records present when
// ScanFrom ran: buffered records are flushed so they are readable, and
// records appended afterwards are not visited — unless they race the tail
// check, which a cursor from at or below an unchecked log's tail is.
func (l *Log) ScanFrom(lsn ids.LSN) (*Cursor, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return nil, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return nil, err
	}
	if start := l.segs[0].start; lsn.IsNil() || lsn < start {
		lsn = start
	}
	c := &Cursor{r: Reader{l: l, block: readBlock, limit: l.bufBase}, lsn: lsn}
	if l.unchecked.Load() && lsn <= l.tail {
		c.from, c.end, c.r.limit = lsn, l.bufBase, l.tail
	}
	return c, nil
}

// Next returns the next record and advances the cursor. ok is false at
// the end of the cursor's view (err is nil there).
//
// The Record's Payload is only valid until the following Next call: it
// aliases the cursor's read-ahead block (recovery walks the whole log,
// and a per-record allocation or system call there is exactly the cost
// this log exists to avoid). Consumers that retain payload bytes must
// copy them.
func (c *Cursor) Next() (rec Record, ok bool, err error) {
	if c.lsn >= c.r.limit && c.r.limit < c.end {
		c.r.limit = c.end // the tail check has landed on the tail
	}
	if c.lsn < c.r.limit {
		if rec, err = c.r.read(c.lsn); err == nil {
			c.lsn += ids.LSN(rec.Size)
			return rec, true, nil
		}
	}
	if !c.end.IsNil() { // the tail check stopped: the log's end settles, and the view's
		c.end = ids.NilLSN
		if err = c.r.l.endTail(c.from, c.lsn, err); err == nil {
			c.r.limit = c.lsn
		}
	}
	return Record{}, false, err
}

// LSN returns the position of the record Next would return.
func (c *Cursor) LSN() ids.LSN { return c.lsn }

// TrimHead deletes whole segments that lie entirely before keep: every
// record at LSN >= keep stays readable. The runtime calls it each time
// a checkpoint is published, with the oldest position recovery could
// still need. Trimming never touches the active segment. A segment
// leaves the log as its file goes, oldest first, so a failed remove
// leaves the log naming exactly the segments still on disk, and the
// next trim resumes there; a file already gone counts as removed.
func (l *Log) TrimHead(keep ids.LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	for len(l.segs) > 1 && l.segs[0].end() <= keep {
		s := l.segs[0]
		if err := l.dev.Remove(s.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: trim %s: %w", s.path, err)
		}
		l.segs = slices.Delete(l.segs, 0, 1)
		l.stats.TrimmedBytes += s.size
		l.m.TrimmedBytes.Add(s.size)
	}
	return nil
}

// SetSegmentBytes overrides the roll-over threshold (tests use small
// segments to exercise rolling and trimming).
func (l *Log) SetSegmentBytes(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > 0 {
		l.segmentBytes = n
	}
}

// SetMetrics redirects the log's device-boundary accounting to reg
// (by default it reports to obs.Default). The runtime calls this right
// after Open so a process's log shares the process's registry; switch
// before any activity you intend to account.
func (l *Log) SetMetrics(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = obs.WALView(reg)
}

// Stats returns a snapshot of the log's activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.segs)
	return s
}

// ResetStats zeroes the activity counters (used between experiment runs).
func (l *Log) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{}
}

// Close flushes and closes the log without syncing (a crash may follow
// Close in tests; durability comes only from a force). Force requests
// that arrived first run to completion: Close waits for the leader and
// for every waiter — each is covered by a sync or leads the next one —
// so none is failed by an orderly shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.down() == nil && (l.syncing || l.waiters > 0) {
		l.syncDone.Wait()
	}
	if l.closed.Load() {
		return nil
	}
	err := l.flushLocked()
	l.closed.Store(true)
	l.f.Close()
	return err
}

// Discard closes the log as a process crash does: the buffer — every
// record no flush wrote — is dropped, and nothing is written, synced or
// cut. What the files keep is the device's to decide: the host keeps
// every byte already written, as a killed process leaves them, and a
// power cut keeps what a sync covered. From the first instant no force
// request is acknowledged: the leader — in its commit window or its
// device sync — and every waiter fail with ErrClosed, and Discard waits
// only for the leader to let go of its file.
func (l *Log) Discard() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return
	}
	l.closed.Store(true)
	l.syncDone.Broadcast()
	for l.syncing {
		l.syncDone.Wait()
	}
	l.buf = nil
	l.f.Close()
}
