package main

import (
	"reflect"
	"time"

	phoenix "repro"
	"repro/internal/bookstore"
	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/serial"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Every product symbol the benchmark depends on, with the signature it
// relies on. A change that breaks one of these lines changes the
// benchmark's instrument and needs a benchmark issue of its own; the
// list is repeated in README.md.
var (
	// The facade: building and driving a world.
	_ func(phoenix.UniverseConfig) (*phoenix.Universe, error)                               = phoenix.NewUniverse
	_ func(*phoenix.Universe, string) (*phoenix.Machine, error)                             = (*phoenix.Universe).AddMachine
	_ func(*phoenix.Universe, phoenix.URI) *phoenix.Ref                                     = (*phoenix.Universe).ExternalRef
	_ func(*phoenix.Universe) *phoenix.MetricsRegistry                                      = (*phoenix.Universe).Metrics
	_ func(*phoenix.Universe)                                                               = (*phoenix.Universe).Shutdown
	_ func(*phoenix.Machine, string, phoenix.Config) (*phoenix.Process, error)              = (*phoenix.Machine).StartProcess
	_ func(*phoenix.Process, string, any, ...phoenix.CreateOption) (*phoenix.Handle, error) = (*phoenix.Process).Create
	_ func(*phoenix.Process, string) (*phoenix.Handle, bool)                                = (*phoenix.Process).Lookup
	_ func(*phoenix.Process) wal.Stats                                                      = (*phoenix.Process).LogStats
	_ func(*phoenix.Process) (phoenix.RecoveryStats, bool)                                  = (*phoenix.Process).LastRecovery
	_ func(*phoenix.Process) error                                                          = (*phoenix.Process).DrainRecovery
	_ func(*phoenix.Process) error                                                          = (*phoenix.Process).Checkpoint
	_ func(*phoenix.Process) string                                                         = (*phoenix.Process).LogDir
	_ func(*phoenix.Process)                                                                = (*phoenix.Process).Crash
	_ func(*phoenix.Process) error                                                          = (*phoenix.Process).Close
	_ func(*phoenix.Handle) phoenix.URI                                                     = (*phoenix.Handle).URI
	_ func(*phoenix.Handle) any                                                             = (*phoenix.Handle).Object
	_ func(*phoenix.Handle) error                                                           = (*phoenix.Handle).SaveState
	_ func(*phoenix.Ref, string, ...any) ([]any, error)                                     = (*phoenix.Ref).Call
	_ func(phoenix.URI) *phoenix.Ref                                                        = phoenix.NewRef
	_ func(string, string, string) phoenix.URI                                              = phoenix.MakeURI
	_ func(any)                                                                             = phoenix.RegisterComponentType
	_ func() *phoenix.MetricsRegistry                                                       = phoenix.NewMetricsRegistry
	_ func(*phoenix.MetricsRegistry) phoenix.MetricsSnapshot                                = (*phoenix.MetricsRegistry).Snapshot
	_ func(phoenix.MetricsSnapshot, phoenix.MetricsSnapshot) phoenix.MetricsSnapshot        = phoenix.MetricsSnapshot.Diff
	_ func(phoenix.MetricsSnapshot, string) int64                                           = phoenix.MetricsSnapshot.Counter
	_ func(float64) phoenix.Clock                                                           = phoenix.NewRealClock
	_ func() *disk.VirtualClock                                                             = phoenix.NewVirtualClock
	_ func() phoenix.SimParams                                                              = phoenix.DefaultDiskParams
	_ func(phoenix.SimParams, phoenix.Clock) *phoenix.SimDisk                               = phoenix.NewSimDisk
	_ func(phoenix.Clock, time.Duration) phoenix.Network                                    = phoenix.NewMemNetwork

	// The configuration fields the workloads set.
	_ = phoenix.UniverseConfig{Dir: "", Clock: nil, Net: nil, DiskModel: nil, Metrics: nil}
	_ = phoenix.Config{
		LogMode: phoenix.LogOptimized, SpecializedTypes: true,
		WAL:      phoenix.WALConfig{GroupCommit: phoenix.GroupCommit{Enabled: true}},
		Recovery: phoenix.RecoveryConfig{Mode: phoenix.RecoveryLazy},
	}
	_ = phoenix.RecoveryEager

	// The counters read.
	_ = wal.Stats{Appends: 0, Forces: 0, BytesWritten: 0, AppendBusyNanos: 0, SyncBusyNanos: 0}
	_ = phoenix.RecoveryStats{Pass1Duration: 0, Pass2Duration: 0, RecordsScanned: 0,
		CallsReplayed: 0, CallsSuppressed: 0, ContextsOnDemand: 0}
	_ = [...]string{obs.WALForces, obs.WALAppends, obs.RPCCalls, obs.ServeExecs, obs.RecoveryRuns, obs.ReplayedCalls}

	// The two seams.
	_ transport.Network = (*tracedNet)(nil)
	_ disk.Model        = (*tracedDisk)(nil)
	_ transport.Handler = func([]byte) ([]byte, error) { return nil, nil }

	// The layers replayed from captured traffic.
	_ func(*msg.Call) ([]byte, error)                                         = msg.EncodeCall
	_ func([]byte) (*msg.Call, error)                                         = msg.DecodeCall
	_ func(*msg.Reply) ([]byte, error)                                        = msg.EncodeReply
	_ func([]byte) (*msg.Reply, error)                                        = msg.DecodeReply
	_ func([]byte)                                                            = msg.FreeBuf
	_                                                                         = msg.Call{Target: "", Method: "", Args: nil, NumArgs: 0}
	_                                                                         = msg.Reply{Results: nil, AppErr: "", Fault: ""}
	_ func(any) (*rpc.Dispatcher, error)                                      = rpc.NewDispatcher
	_ func(*rpc.Dispatcher, string, []byte, int) ([]byte, int, string, error) = (*rpc.Dispatcher).InvokeEncoded
	_ func(*rpc.Dispatcher, string) (*rpc.Method, bool)                       = (*rpc.Dispatcher).Method
	_ func(...any) ([]byte, int, error)                                       = rpc.EncodeArgs
	_ func([]byte) ([]any, error)                                             = rpc.DecodeResults
	_ func(string, disk.Model, int) (*wal.Set, error)                         = wal.OpenSet
	_ logAppender                                                             = wal.Writer(nil)
	_ func(*wal.Set) []wal.Shard                                              = (*wal.Set).Shards
	_                                                                         = wal.Shard{Log: nil}
	_ func(*wal.Set) error                                                    = (*wal.Set).Close
	_ func(*wal.Log, ids.LSN) (*wal.Cursor, error)                            = (*wal.Log).ScanFrom
	_ func(*wal.Cursor) (wal.Record, bool, error)                             = (*wal.Cursor).Next
	_ wal.PayloadEncoder                                                      = wal.EncodeFunc(nil)
	_ func(any) (*serial.State, error)                                        = serial.Capture
	_ func(*serial.State) ([]byte, error)                                     = (*serial.State).Encode
	_ func([]byte) (*serial.State, error)                                     = serial.DecodeState
	_ func(any, *serial.State, serial.Resolver) error                         = serial.Restore
	_ func(ids.URI) (string, string, string, error)                           = ids.URI.Split

	// The application of store-sim.
	_ func(*phoenix.Universe, string, bookstore.Level, []string) (*bookstore.Deployment, error) = bookstore.Deploy
	_ func(*phoenix.Universe, *bookstore.Deployment, string, string) *bookstore.Buyer           = bookstore.NewBuyer
	_ func(*bookstore.Buyer) (bookstore.SessionResult, error)                                   = (*bookstore.Buyer).RunSession
	_ func() ([]bookstore.Book, []bookstore.Book)                                               = bookstore.Inventories
	_                                                                                           = bookstore.LevelSpecialized
	_                                                                                           = bookstore.Deployment{ServerProcs: nil, StoreURIs: nil}
	_ func(*bookstore.Deployment)                                                               = (*bookstore.Deployment).Close
	_ func(*bookstore.BookStore, string) ([]bookstore.Book, error)                              = (*bookstore.BookStore).Search
	_                                                                                           = bookstore.SessionResult{Offers: 0, Added: 0, Shown: 0, Total: 0, Removed: 0}
	_                                                                                           = bookstore.Offer{Store: "", Book: bookstore.Book{Title: "", Price: 0}}
	_                                                                                           = reflect.TypeOf(bookstore.BookStore{Inventory: nil})
	_                                                                                           = reflect.TypeOf(bookstore.TaxCalculator{Rates: nil})
)
