package wal

import (
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/obs"
)

// PayloadEncoder produces a record payload by appending it to the
// slice it is given and returning the extended slice (the append-style
// contract of Log.AppendInto). Hot record types implement it directly
// on their pointer receivers so the append path stays allocation-free;
// one-off encoders wrap a closure in EncodeFunc.
type PayloadEncoder interface {
	AppendPayload(dst []byte) ([]byte, error)
}

// EncodeFunc adapts a plain closure to PayloadEncoder.
type EncodeFunc func(dst []byte) ([]byte, error)

// AppendPayload implements PayloadEncoder.
func (f EncodeFunc) AppendPayload(dst []byte) ([]byte, error) { return f(dst) }

// Shard is one stream of a sharded log: the stream tag its LSNs carry
// and the Log that owns its files. Writer.Shards returns them in era
// order (monotonic stream tags), which is also temporal order — the
// order recovery scans them in.
type Shard struct {
	// Stream is the tag in the top byte of this shard's LSNs.
	Stream uint32
	// Era indexes the reshard era the stream belongs to (0-based).
	// Streams of the same era carry concurrent records; a stream of a
	// later era holds only records appended after every record of
	// earlier eras' streams.
	Era int
	// Log manages the shard's segment files. Scans and reads on it see
	// only this stream's records.
	Log *Log
}

// Writer is the log interface the Phoenix runtime writes through,
// implemented by *Set:
//
//   - AppendInto takes a routing key (the appending context's CompID),
//     hashed to pick the shard.
//   - Forces are LSN-aware (SyncTo) and route to the shard that owns
//     the LSN's stream.
//   - Whole-log introspection goes through Shards(): recovery and
//     tooling scan each stream with its own cursor instead of assuming
//     one contiguous LSN space.
type Writer interface {
	// AppendInto appends a record built by enc to the stream the
	// routing key maps to and returns its stream-qualified LSN.
	AppendInto(key uint64, t RecordType, enc PayloadEncoder) (ids.LSN, error)
	// AppendLinked is AppendInto for a record of a chain: the frame
	// links back to the LSN in *head, which becomes the record's own.
	// A nil head is AppendInto.
	AppendLinked(key uint64, t RecordType, enc PayloadEncoder, head *atomic.Uint64) (ids.LSN, error)
	// SyncTo blocks until the record at lsn (and everything before it
	// in its stream) is stable; the outcome feeds per-site force
	// accounting.
	SyncTo(lsn ids.LSN) (SyncOutcome, error)
	// SyncAll forces every stream's full tail. The outcome is
	// SyncIssued if any stream issued a device sync.
	SyncAll() (SyncOutcome, error)
	// SyncedLSN returns the stable watermark of the meta stream (the
	// stream checkpoint records append to).
	SyncedLSN() ids.LSN
	// Publish durably records the checkpoint that begins at begin where
	// the next open finds it, in one atomic write: marks, the position
	// recovery's scan of each stream may start from (the map is the log's
	// from here on), and every stream's stable watermark — the next tail
	// check starts there, and treats a bad frame below it as corruption,
	// not a torn tail. A begin no newer than the last published is dropped.
	Publish(begin ids.LSN, marks map[uint32]ids.LSN) error
	// Marks returns the vector last published, else the one the log
	// held when it was opened; empty when there is none. Read-only.
	Marks() map[uint32]ids.LSN
	// Flush writes buffered records of every stream to their files
	// without syncing.
	Flush() error
	// Read returns the record at lsn, routed by the LSN's stream tag.
	Read(lsn ids.LSN) (Record, error)
	// NewReader returns a positioned reader over every stream for a
	// consumer holding LSNs a scan reported (a worker walking chains).
	NewReader() *Reader
	// TrimHead deletes whole segments entirely before keep in the
	// stream keep's tag names.
	TrimHead(keep ids.LSN) error
	// Empty reports whether no stream holds any record.
	Empty() bool
	// Shards returns the streams in era order.
	Shards() []Shard
	// StreamsFor returns the stream the routing key maps to in each
	// era, in era order — the streams that may hold the key's records.
	StreamsFor(key uint64) []uint32
	// Stats returns activity counters summed over all streams.
	Stats() Stats
	// ResetStats zeroes the activity counters of every stream.
	ResetStats()
	// SetSegmentBytes overrides every stream's segment roll threshold.
	SetSegmentBytes(n int64)
	// SetMetrics redirects device-boundary accounting to reg.
	SetMetrics(reg *obs.Registry)
	// StartGroupCommit turns on the sync leader's commit window in
	// every appendable stream.
	StartGroupCommit(cfg GroupCommitConfig, clock disk.Clock)
	// Close flushes and closes every stream without syncing.
	Close() error
	// Discard closes every stream simulating a crash: unforced records
	// are dropped.
	Discard() error
}

var _ Writer = (*Set)(nil)
