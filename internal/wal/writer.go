package wal

import (
	"repro/internal/ids"
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

// Shard is a log stream: the Log that owns its files. Log.Shards
// returns the process log's one.
type Shard struct {
	Log *Log
}

// Writer is the slice of the log an append-and-force loop drives:
// benchmark/pins.go holds its own interface of these two methods to
// it. The runtime holds its log by type, *Log.
type Writer interface {
	// AppendInto appends a record built by enc and returns its LSN.
	// key is the appending context's CompID (0: a process-wide record);
	// it routes nothing.
	AppendInto(key uint64, t RecordType, enc PayloadEncoder) (ids.LSN, error)
	// SyncTo blocks until the record at lsn (and everything before it)
	// is stable; the outcome feeds per-site force accounting.
	SyncTo(lsn ids.LSN) (SyncOutcome, error)
}

var _ Writer = (*Log)(nil)
