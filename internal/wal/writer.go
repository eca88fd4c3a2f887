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

// Shard is a log stream: the Log that owns its files. Set.Shards
// returns the process log's one.
type Shard struct {
	Log *Log
}

// Writer is the log interface the Phoenix runtime writes through,
// implemented by *Set. Forces are LSN-aware (SyncTo): a force waits
// only for the records it needs.
type Writer interface {
	// AppendInto appends a record built by enc and returns its LSN.
	// key is the appending context's CompID (0: a process-wide record);
	// it routes nothing.
	AppendInto(key uint64, t RecordType, enc PayloadEncoder) (ids.LSN, error)
	// AppendLinked is AppendInto for a record of a chain: the frame
	// links back to the LSN in *head, which becomes the record's own.
	// A nil head is AppendInto.
	AppendLinked(key uint64, t RecordType, enc PayloadEncoder, head *atomic.Uint64) (ids.LSN, error)
	// SyncTo blocks until the record at lsn (and everything before it)
	// is stable; the outcome feeds per-site force accounting.
	SyncTo(lsn ids.LSN) (SyncOutcome, error)
	// SyncAll forces the log's full tail.
	SyncAll() (SyncOutcome, error)
	// SyncedLSN returns the stable watermark.
	SyncedLSN() ids.LSN
	// Publish durably records the checkpoint that begins at begin where
	// the next open finds it, in one atomic write: begin, the mark
	// recovery's scan may start from, and the log's stable watermark —
	// the next tail check starts there, and treats a bad frame below it
	// as corruption, not a torn tail. A begin no newer than the mark is
	// dropped.
	Publish(begin ids.LSN) error
	// Mark returns the begin-checkpoint LSN last published, else the one
	// the log held when it was opened; NilLSN when there is none.
	Mark() ids.LSN
	// Flush writes buffered records to the files without syncing.
	Flush() error
	// Read returns the record at lsn.
	Read(lsn ids.LSN) (Record, error)
	// Scan calls fn for every record from lsn from (or the log start)
	// to the end of the log as it was when Scan began.
	Scan(from ids.LSN, fn func(Record) error) error
	// NewReader returns a positioned reader for a consumer holding LSNs
	// a scan reported (a worker walking chains).
	NewReader() *Reader
	// TrimHead deletes whole segments entirely before keep.
	TrimHead(keep ids.LSN) error
	// Start returns the LSN of the oldest retained record position.
	Start() ids.LSN
	// Empty reports whether the log holds no record.
	Empty() bool
	// Stats returns the log's activity counters.
	Stats() Stats
	// ResetStats zeroes the activity counters.
	ResetStats()
	// SetSegmentBytes overrides the segment roll threshold.
	SetSegmentBytes(n int64)
	// SetMetrics redirects device-boundary accounting to reg.
	SetMetrics(reg *obs.Registry)
	// StartGroupCommit turns on the sync leader's commit window.
	StartGroupCommit(cfg GroupCommitConfig, clock disk.Clock)
	// Close flushes and closes the log without syncing.
	Close() error
	// Discard closes the log simulating a crash: unforced records are
	// dropped.
	Discard() error
}

var _ Writer = (*Set)(nil)
