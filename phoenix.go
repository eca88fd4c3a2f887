// Package phoenix is the public API of the Phoenix/App reproduction: a
// runtime for persistent stateful components whose interactions are
// transparently intercepted and logged, and whose state is rebuilt
// after a crash by redo recovery — exactly-once execution without any
// application-visible recovery code.
//
// It implements the system of Barga, Chen and Lomet, "Improving Logging
// and Recovery Performance in Phoenix/App" (ICDE 2004): the baseline
// force-everything logging of the earlier prototype, the optimized
// logging disciplines (Algorithms 2-5), specialized component types
// (subordinate, functional, read-only) and read-only methods, the
// multi-call optimization, and checkpointing (context state records and
// process checkpoints) with two-pass recovery.
//
// # Quickstart
//
//	u, _ := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: dir})
//	m, _ := u.AddMachine("evo1")
//	p, _ := m.StartProcess("appd", phoenix.Config{
//		LogMode:          phoenix.LogOptimized,
//		SpecializedTypes: true,
//	})
//	h, _ := p.Create("Counter", &Counter{})     // a persistent component
//	ref := u.ExternalRef(h.URI())
//	ref.Call("Add", 1)                          // logged, recoverable
//	p.Crash()                                   // lose everything volatile
//	p, _ = m.StartProcess("appd", cfg)          // replays the log
//	ref.Call("Get")                             // state is intact
//
// Components are plain Go structs: exported fields are the recoverable
// state (fields tagged `phoenix:"-"` and unexported fields are
// transient), exported methods whose parameters and results the value
// codec carries (basic types, their common slices and maps, and
// registered application types) are callable. Components must be piece-wise deterministic: contexts are
// single-threaded, and all interaction with other components must go
// through Refs so the runtime can intercept it. Register argument and
// result struct types with RegisterType.
package phoenix

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// Core runtime types.
type (
	// Universe is the world: machines, network, clock, storage root.
	Universe = core.Universe
	// UniverseConfig configures a Universe.
	UniverseConfig = core.UniverseConfig
	// Machine hosts processes and runs a per-machine recovery service.
	Machine = core.Machine
	// Process is a virtual process hosting component contexts, with
	// its own recovery log. Crash it with Crash; StartProcess on the
	// same machine and name recovers it.
	Process = core.Process
	// Config holds the per-process runtime switches: logging mode,
	// specialized types, multi-call optimization, checkpoint policies,
	// group-commit batching (Config.WAL), and recovery scheduling
	// (Config.Recovery).
	Config = core.Config
	// GroupCommit is the nested Config.WAL.GroupCommit section.
	// Concurrent forces of the process log always share a device sync
	// (the first requester leads it, later ones ride it); Enabled
	// makes a leader first hold a 200µs commit window so committers
	// already on their way are covered by the same sync. The zero
	// value leaves the combining opportunistic.
	GroupCommit = core.GroupCommit
	// WALConfig is the nested Config.WAL section: GroupCommit switches
	// on the log's commit window. The zero value is no window.
	WALConfig = core.WALConfig
	// RecoveryConfig is the nested Config.Recovery section — the
	// restart surface. Mode schedules Pass-2 replay: RecoveryEager
	// (the zero value) replays every context's backlog before the
	// process serves a single call; RecoveryLazy admits traffic as
	// soon as Pass 1 has rebuilt the context tables and found the
	// head of each context's chain of message records, walking and
	// replaying a context's backlog when a call first touches it
	// on that call's goroutine (only that call waits; concurrent
	// arrivals share one replay) while one background worker takes the
	// rest in restart-LSN order. The zero value joins the worker before
	// the process opens.
	RecoveryConfig = core.Recovery
	// RecoveryMode selects when Pass-2 replay runs relative to the
	// process admitting traffic (RecoveryConfig.Mode).
	RecoveryMode = core.RecoveryMode
	// RecoveryStats summarizes a crash-recovery run: per-pass durations
	// (measured on the universe clock), contexts restored, records
	// read from the log, calls replayed, sends suppressed,
	// TimeToFirstCallNanos (recovery start to the first call
	// admitted — perceived downtime), on-demand vs background replay
	// counts, and per-context replay latency.
	// Retrieve it with Process.LastRecovery or from the
	// EventRecoveryDone event's Recovery field; after a lazy restart,
	// Process.DrainRecovery blocks until the background drain is done
	// and Process.RecoverContext replays one context on demand.
	RecoveryStats = core.RecoveryStats
	// Handle is the creator's handle on a hosted component.
	Handle = core.Handle
	// Ref is a proxy for calling a component in another context.
	Ref = core.Ref
	// Ctx is the context API available to ContextAware components.
	Ctx = core.Ctx
	// Local is a direct, unlogged handle on a subordinate component.
	Local = core.Local
	// ContextAware components receive their Ctx at creation/recovery.
	ContextAware = core.ContextAware
	// CreateOption configures Process.Create.
	CreateOption = core.CreateOption
	// LogMode selects the logging discipline.
	LogMode = core.LogMode
	// Injector drives failure injection for recovery testing.
	Injector = core.Injector
	// InjectionPoint names an interception step for failure injection.
	InjectionPoint = core.InjectionPoint
	// ComponentType classifies components (persistent, subordinate,
	// functional, read-only, external).
	ComponentType = msg.ComponentType
	// URI names a component: phoenix://machine/process/component.
	URI = ids.URI
	// AppError is an error returned by the remote method itself.
	AppError = core.AppError
	// Fault is an infrastructure error from the server runtime.
	Fault = core.Fault
	// Event is a runtime lifecycle occurrence (see Config.OnEvent).
	Event = core.Event
	// EventKind classifies lifecycle events.
	EventKind = core.EventKind
)

// Recovery modes (RecoveryConfig.Mode): eager replays everything
// before admission — the zero value and the classic restart — while
// lazy opens the process after Pass 1 and replays per context on first
// touch or, in restart-LSN order, on the one background worker.
const (
	RecoveryEager = core.RecoveryEager
	RecoveryLazy  = core.RecoveryLazy
)

// Lifecycle event kinds (Config.OnEvent).
const (
	EventCrash         = core.EventCrash
	EventRecoveryStart = core.EventRecoveryStart
	EventRecoveryDone  = core.EventRecoveryDone
	EventStateSave     = core.EventStateSave
	EventCheckpoint    = core.EventCheckpoint
	EventTrim          = core.EventTrim
	EventRetry         = core.EventRetry
	EventReplay        = core.EventReplay
)

// Runtime metrics (see internal/obs for the full metric name catalog).
type (
	// MetricsRegistry holds named counters and histograms; pass one in
	// Config.Metrics or UniverseConfig.Metrics to isolate a process's
	// or universe's accounting, or read the shared DefaultMetrics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry; Diff two
	// snapshots for per-run deltas.
	MetricsSnapshot = obs.Snapshot
)

// Causal tracing: every external call gets a TraceID that rides the
// wire envelopes and the hot log records; stage spans land in a
// crash-surviving lock-free flight recorder (see internal/obs/trace).
type (
	// TraceRecorder is the per-process (or per-universe) flight
	// recorder. Pass one in UniverseConfig.Trace or Config.Trace; nil
	// disables tracing at zero cost.
	TraceRecorder = trace.Recorder
	// TraceOptions configures NewTraceRecorder: ring size, metrics
	// registry for trace.* histograms, and the clock.
	TraceOptions = trace.Options
	// TraceRef identifies a span within a trace.
	TraceRef = trace.Ref
	// TraceSpan is one recorded stage span (Recorder.Snapshot, dumps).
	TraceSpan = trace.Span
	// TraceStage enumerates the instrumented pipeline legs.
	TraceStage = trace.Stage
	// Timeline is one trace's merged record/span history.
	Timeline = core.Timeline
	// TimelineEvent is one entry of a Timeline.
	TimelineEvent = core.TimelineEvent
)

// NewTraceRecorder builds a flight recorder. Wire Options.Now to the
// universe clock so spans are timestamped in model time.
func NewTraceRecorder(o TraceOptions) *TraceRecorder { return trace.NewRecorder(o) }

// TraceTimelines merges recovery-log scans with flight-recorder dumps
// into per-trace timelines (what phoenix-trace renders). The logs must
// not be owned by live processes.
func TraceTimelines(logs, dumps []string) ([]Timeline, error) {
	return core.TraceTimelines(logs, dumps)
}

// DiscoverTraceFiles finds the process logs and flight-recorder dumps
// under a universe (or machine) directory.
func DiscoverTraceFiles(dir string) (logs, dumps []string, err error) {
	return core.DiscoverTraceFiles(dir)
}

// WriteTimelines renders timelines as text.
func WriteTimelines(w io.Writer, tls []Timeline) { core.WriteTimelines(w, tls) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the shared fallback registry that processes
// account to when no explicit registry is configured.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// Logging modes (paper Section 3).
const (
	// LogBaseline forces every message — the first prototype.
	LogBaseline = core.LogBaseline
	// LogOptimized logs receive messages without forcing and forces
	// (without writing) at send messages.
	LogOptimized = core.LogOptimized
)

// Component types (paper Sections 2 and 3.2).
const (
	// External components get no logging and no guarantees.
	External = msg.External
	// Persistent components are logged and recovered transparently.
	Persistent = msg.Persistent
	// Subordinate components live inside their parent's context.
	Subordinate = msg.Subordinate
	// Functional components are stateless and pure.
	Functional = msg.Functional
	// ReadOnly components are stateless readers of persistent state.
	ReadOnly = msg.ReadOnly
)

// Failure injection points (see core documentation for placement).
const (
	PointServerBeforeLogIncoming = core.PointServerBeforeLogIncoming
	PointServerAfterLogIncoming  = core.PointServerAfterLogIncoming
	PointServerAfterExecute      = core.PointServerAfterExecute
	PointServerBeforeSendReply   = core.PointServerBeforeSendReply
	PointClientBeforeForceSend   = core.PointClientBeforeForceSend
	PointClientAfterForceSend    = core.PointClientAfterForceSend
	PointClientBeforeForceReply  = core.PointClientBeforeForceReply
	PointClientAfterReply        = core.PointClientAfterReply
)

// ErrUnavailable reports that a callee stayed unreachable through the
// whole retry window.
var ErrUnavailable = core.ErrUnavailable

// NewUniverse creates a world rooted at cfg.Dir.
func NewUniverse(cfg UniverseConfig) (*Universe, error) { return core.NewUniverse(cfg) }

// NewRef returns an unbound proxy to assign to a component's exported
// *Ref field before Create; the runtime binds it to the component's
// context.
func NewRef(target URI) *Ref { return core.NewRef(target) }

// NewInjector returns an empty failure injector; arm it with CrashAt
// and pass it in Config.Injector.
func NewInjector() *Injector { return core.NewInjector() }

// MakeURI builds a component URI from its location parts.
func MakeURI(machine, process, component string) URI {
	return ids.MakeURI(machine, process, component)
}

// WithType sets a component's type at Create (default Persistent).
func WithType(t ComponentType) CreateOption { return core.WithType(t) }

// WithReadOnlyMethods declares the read-only attribute (Section 3.3)
// on the named methods of the component being created.
func WithReadOnlyMethods(names ...string) CreateOption {
	return core.WithReadOnlyMethods(names...)
}

// WithSubordinate co-locates a subordinate component in the new
// context (Section 3.2.1).
func WithSubordinate(name string, obj any) CreateOption {
	return core.WithSubordinate(name, obj)
}

// RegisterType makes a concrete application type transmissible as a
// method argument or result: register the struct and, separately, any
// slice or pointer of it that is passed directly. The type's encoding
// plan is compiled here, so a type that cannot cross a component
// boundary (a chan, func or unsafe-pointer field, a struct with no
// exported fields) panics at registration, naming the field.
// Registering a type twice is a no-op. Saved component state goes
// through the same codec, so the one registration also lets the type
// sit in an interface-typed field of a component.
func RegisterType(v any) { msg.RegisterType(v) }

// BindStub fills the exported func-typed fields of *stub with typed
// wrappers around ref.Call, giving a component reference a statically
// typed client surface without code generation:
//
//	type StoreClient struct {
//		Search func(keyword string) ([]Book, error)
//	}
//	var c StoreClient
//	phoenix.BindStub(&c, ref)
//	books, err := c.Search("recovery")
//
// Field names are the remote method names; every signature must return
// an error last.
func BindStub(stub any, ref *Ref) error {
	return rpc.BindStub(stub, ref.Call)
}

// RegisterComponentType records a component's concrete type for
// recovery in binaries that recover components they never created.
func RegisterComponentType(sample any) { core.RegisterComponentType(sample) }

// Simulation plumbing, re-exported for experiments and tests.
type (
	// Clock abstracts time for the simulated world.
	Clock = disk.Clock
	// SimParams configures the simulated rotational disk.
	SimParams = disk.SimParams
	// SimDisk is a 7200-RPM rotational disk model (paper Table 3).
	SimDisk = disk.SimDisk
	// DiskModel is the timing model of a log device.
	DiskModel = disk.Model
	// Network carries messages between processes.
	Network = transport.Network
)

// NewRealClock returns a wall clock; scale < 1 compresses simulated
// sleeps while still reporting model time.
func NewRealClock(scale float64) Clock { return disk.NewRealClock(scale) }

// NewVirtualClock returns a non-sleeping, deterministic clock.
func NewVirtualClock() *disk.VirtualClock { return disk.NewVirtualClock() }

// DefaultDiskParams returns the paper's Table 3 disk (7200 RPM, write
// cache disabled).
func DefaultDiskParams() SimParams { return disk.DefaultParams() }

// NewSimDisk builds a simulated disk over the given clock.
func NewSimDisk(p SimParams, c Clock) *SimDisk { return disk.NewSimDisk(p, c) }

// NewMemNetwork builds the in-process network with injected round-trip
// latency.
func NewMemNetwork(c Clock, rtt time.Duration) Network {
	return transport.NewMem(c, rtt)
}

// NewTCPNetwork builds the real-socket network.
func NewTCPNetwork() *transport.TCP { return transport.NewTCP() }

// DumpLog renders a process recovery log human-readably (one line per
// record); dir is the value of Process.LogDir. The log must not be
// owned by a live process.
func DumpLog(w io.Writer, dir string) error { return core.DumpLog(w, dir) }
