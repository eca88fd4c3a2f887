package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
)

// Set is the log a process opens: N appendable shard streams keyed by
// the append's routing key (the context's CompID), each stream a Log
// owning its own segment files, append mutex, sync leader and synced
// watermark. Appends from different contexts do not serialize on one
// mutex, and forces to different shards sync different files
// concurrently. One shard is the general case with
// N = 1, not a separate implementation.
//
// Cross-shard ordering: there is none, deliberately. Recoverability
// does not need a totally ordered log (arXiv:1901.06491) — it needs
// the per-context record order, and a context's records all land in
// one stream per era because the routing key is the context ID. The
// well-known checkpoint LSN is a per-stream vector of marks (Publish).
type Set struct {
	dir string
	// root is shards.meta as OpenSet read or wrote it: eras, hintsLost and
	// the stable watermarks the tail checks started from stay as they were
	// then; marks is replaced by each publication. pubMu makes one a
	// critical section: the file, marks, and the begin-LSN they belong to.
	root
	pubMu    sync.Mutex
	pubBegin ids.LSN

	shards []Shard // era order; index-aligned with eras expansion
	active []*Log  // logs of the latest era, routing-index order
	byStr  map[uint32]*Log
	m      *obs.WALMetrics
}

// OpenSet opens the sharded log at dir with n appendable shards:
//
//   - fresh directory: creates streams 1..max(n, 1);
//   - existing log: n <= 0 keeps the layout on disk (a restart with
//     the zero config, and every read-only tool), and so does n equal
//     to the current shard count; any other n appends a new era.
//
// Open writes the root only when the era list changed — on creation
// and on a reshard, which carries the hints through — and always before
// any directory of the new era exists.
func OpenSet(dir string, model disk.Model, n int) (*Set, error) {
	if n > ids.MaxStream {
		return nil, fmt.Errorf("wal: %d shards exceeds the %d-stream LSN tag space", n, ids.MaxStream)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	r, err := loadShardMeta(dir)
	if err != nil {
		return nil, err
	}
	fresh, resharded := r.eras == nil, false
	switch {
	case fresh:
		// Segment files without an era file are a bare Log's records;
		// starting an era list beside them would silently hide them.
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("wal: read dir: %w", err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".seg") {
				return nil, fmt.Errorf("wal: %s holds segment files but no %s: not a sharded log directory", dir, shardMetaName)
			}
		}
		r.eras = []Era{{Base: 1, Count: max(n, 1)}}
	case n >= 1 && n != r.eras[len(r.eras)-1].Count:
		last := r.eras[len(r.eras)-1]
		base := uint64(last.Base) + uint64(last.Count)
		if base+uint64(n)-1 > ids.MaxStream {
			return nil, fmt.Errorf("wal: reshard to %d shards exhausts the %d-stream LSN tag space", n, ids.MaxStream)
		}
		r.eras = append(r.eras, Era{Base: uint32(base), Count: n})
		resharded = true
	}
	if fresh || resharded {
		if err := saveShardMeta(dir, r); err != nil {
			return nil, err
		}
	}

	s := &Set{dir: dir, root: r, byStr: make(map[uint32]*Log), m: obs.WALView(obs.Default())}
	for ei, e := range r.eras {
		for i := 0; i < e.Count; i++ {
			stream := e.Base + uint32(i)
			l, err := openLog(filepath.Join(dir, shardDirName(stream)), model,
				ids.StreamLSN(stream, ids.LSN(segHeaderSize)), r.stable[stream])
			if err != nil {
				s.closeOpened()
				return nil, err
			}
			s.shards = append(s.shards, Shard{Stream: stream, Era: ei, Log: l})
			s.byStr[stream] = l
			if ei == len(r.eras)-1 {
				s.active = append(s.active, l)
			}
		}
	}
	if resharded {
		s.m.ShardReshards.Inc()
	}
	s.m.ShardStreams.Observe(int64(len(s.active)))
	return s, nil
}

func (s *Set) closeOpened() {
	for _, sh := range s.shards {
		sh.Log.Close()
	}
}

// shardIdx maps a routing key onto [0, n). Key 0 — the runtime's
// "meta" key for process-wide records (CompIDs start at 1) — always
// maps to shard 0, so checkpoint records share one stream and
// SyncedLSN is well defined.
func shardIdx(key uint64, n int) int {
	if key == 0 || n <= 1 {
		return 0
	}
	h := key * 0x9E3779B97F4A7C15 // Fibonacci hashing; CompIDs are small sequential ints
	h ^= h >> 33
	return int(h % uint64(n))
}

// route returns the active shard the key maps to, and its index.
func (s *Set) route(key uint64) (*Log, int) {
	i := shardIdx(key, len(s.active))
	return s.active[i], i
}

// AppendInto appends to the shard the key maps to. Implements Writer.
func (s *Set) AppendInto(key uint64, t RecordType, enc PayloadEncoder) (ids.LSN, error) {
	return s.AppendLinked(key, t, enc, nil)
}

// AppendLinked implements Writer: the shard the key maps to links the
// record behind *head (see Log.AppendLinked).
func (s *Set) AppendLinked(key uint64, t RecordType, enc PayloadEncoder, head *atomic.Uint64) (ids.LSN, error) {
	l, i := s.route(key)
	lsn, err := l.AppendLinked(key, t, enc, head)
	if err == nil {
		s.m.ShardAppends.Inc()
		s.m.ShardSpread.Observe(int64(i))
	}
	return lsn, err
}

// streamLog resolves the shard owning an LSN's stream.
func (s *Set) streamLog(lsn ids.LSN) (*Log, error) {
	l, ok := s.byStr[lsn.Stream()]
	if !ok {
		return nil, fmt.Errorf("%w: %v (no stream %d)", ErrNotFound, lsn, lsn.Stream())
	}
	return l, nil
}

// SyncTo implements Writer: the force routes to the LSN's stream. A
// nil LSN is a clean force accounted to the meta shard.
func (s *Set) SyncTo(lsn ids.LSN) (SyncOutcome, error) {
	if lsn.IsNil() {
		return s.active[0].SyncTo(lsn)
	}
	l, err := s.streamLog(lsn)
	if err != nil {
		return SyncClean, err
	}
	return l.SyncTo(lsn)
}

// SyncAll forces the full tail of every appendable shard (read-only
// era streams have no dirty tail). The combined outcome is SyncIssued
// if any shard issued a device sync.
func (s *Set) SyncAll() (SyncOutcome, error) {
	out := SyncClean
	for _, l := range s.active {
		o, err := l.SyncAll()
		if err != nil {
			return out, err
		}
		if o == SyncIssued || (o == SyncCombined && out == SyncClean) {
			out = o
		}
	}
	return out, nil
}

// SyncedLSN implements Writer: the stable watermark of the meta shard
// (where checkpoint records live).
func (s *Set) SyncedLSN() ids.LSN { return s.active[0].SyncedLSN() }

// Publish implements Writer: one atomic write replaces the root with the
// era list, the checkpoint's marks and every stream's stable watermark as
// of now. Publications are serialized and never go backwards: a
// checkpoint no newer than the one already published writes nothing.
func (s *Set) Publish(begin ids.LSN, marks map[uint32]ids.LSN) error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if begin <= s.pubBegin {
		return nil
	}
	stable := make(map[uint32]ids.LSN, len(s.shards))
	for _, sh := range s.shards {
		stable[sh.Stream] = sh.Log.SyncedLSN()
	}
	if err := saveShardMeta(s.dir, root{eras: s.eras, marks: marks, stable: stable}); err != nil {
		return fmt.Errorf("wal: publish checkpoint %v: %w", begin, err)
	}
	s.pubBegin, s.marks = begin, marks
	return nil
}

// Marks implements Writer.
func (s *Set) Marks() map[uint32]ids.LSN {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.marks
}

// StableMarks returns the watermarks the root held when the set was
// opened, by stream: where each stream's tail check started.
func (s *Set) StableMarks() map[uint32]ids.LSN { return s.stable }

// HintsLost reports that the root's hint section did not check out at
// open: the set started with no marks and no stable watermarks.
func (s *Set) HintsLost() bool { return s.hintsLost }

// Flush implements Writer.
func (s *Set) Flush() error {
	for _, sh := range s.shards {
		if err := sh.Log.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Read implements Writer, routed by the LSN's stream tag.
func (s *Set) Read(lsn ids.LSN) (Record, error) {
	l, err := s.streamLog(lsn)
	if err != nil {
		return Record{}, err
	}
	return l.Read(lsn)
}

// NewReader implements Writer; the first read allocates the block.
func (s *Set) NewReader() *Reader {
	return &Reader{set: s, block: readBlock, limit: noLimit}
}

// TrimHead implements Writer, routed by keep's stream tag.
func (s *Set) TrimHead(keep ids.LSN) error {
	l, err := s.streamLog(keep)
	if err != nil {
		return err
	}
	return l.TrimHead(keep)
}

// Empty implements Writer: true when no stream holds a record.
func (s *Set) Empty() bool {
	for _, sh := range s.shards {
		if !sh.Log.Empty() {
			return false
		}
	}
	return true
}

// Shards implements Writer: all streams, era order.
func (s *Set) Shards() []Shard {
	out := make([]Shard, len(s.shards))
	copy(out, s.shards)
	return out
}

// StreamsFor implements Writer: the stream the key maps to in each
// era, era order.
func (s *Set) StreamsFor(key uint64) []uint32 {
	out := make([]uint32, len(s.eras))
	for i, e := range s.eras {
		out[i] = e.Base + uint32(shardIdx(key, e.Count))
	}
	return out
}

// Stats implements Writer: counters summed over all streams.
func (s *Set) Stats() Stats {
	var sum Stats
	for _, sh := range s.shards {
		st := sh.Log.Stats()
		sum.Appends += st.Appends
		sum.Forces += st.Forces
		sum.PhysicalWrites += st.PhysicalWrites
		sum.BytesWritten += st.BytesWritten
		sum.Segments += st.Segments
		sum.TrimmedBytes += st.TrimmedBytes
		sum.ReadOps += st.ReadOps
		sum.ReadBytes += st.ReadBytes
		sum.AppendBusyNanos += st.AppendBusyNanos
		sum.SyncBusyNanos += st.SyncBusyNanos
	}
	return sum
}

// ResetStats implements Writer.
func (s *Set) ResetStats() {
	for _, sh := range s.shards {
		sh.Log.ResetStats()
	}
}

// SetSegmentBytes implements Writer.
func (s *Set) SetSegmentBytes(n int64) {
	for _, sh := range s.shards {
		sh.Log.SetSegmentBytes(n)
	}
}

// SetMetrics implements Writer: every shard accounts to reg, and so
// do the set-level wal.shard.* counters.
func (s *Set) SetMetrics(reg *obs.Registry) {
	s.m = obs.WALView(reg)
	for _, sh := range s.shards {
		sh.Log.SetMetrics(reg)
	}
}

// StartGroupCommit implements Writer: each appendable shard elects
// its own leaders, so commit windows on different shards close — and
// sync their files — independently and in parallel.
func (s *Set) StartGroupCommit(cfg GroupCommitConfig, clock disk.Clock) {
	for _, l := range s.active {
		l.StartGroupCommit(cfg, clock)
	}
}

// Close implements Writer.
func (s *Set) Close() error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.Log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Discard implements Writer: every shard drops its unforced tail, the
// per-shard crash model.
func (s *Set) Discard() error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.Log.Discard(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
