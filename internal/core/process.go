package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// Process is a virtual process hosting Phoenix/App contexts. It owns
// the per-process runtime structures of paper Figure 7: the context,
// component, remote component and last call tables, a log manager over
// a process-local log file, and a recovery manager (the recover method
// in recovery.go).
type Process struct {
	u      *Universe
	m      *Machine
	name   string
	procID ids.ProcID
	cfg    Config
	addr   string

	log     *wal.Log
	logPath string

	// metrics is the resolved observability registry (Config.Metrics,
	// else the universe's, else obs.Default()); obs caches its runtime
	// view for the interception hot paths.
	metrics *obs.Registry
	obs     *obs.RuntimeMetrics

	// tr is the resolved flight recorder (Config.Trace, else the
	// universe's). Nil means tracing off; every recording site is
	// nil-safe, so the disabled hot path pays one pointer check.
	tr *trace.Recorder

	mu         sync.Mutex
	contexts   map[ids.CompID]*Context
	byName     map[string]*Context // parent component name -> context
	components map[ids.CompID]*component
	nextCompID uint32

	lastCalls   *lastCallTable
	remoteTypes *remoteTypeTable

	incomingCalls   atomic.Int64 // served incoming calls (checkpoint policy)
	replayedCalls   atomic.Int64 // calls re-executed by recovery
	suppressedCalls atomic.Int64 // outgoing sends answered from the log during replay
	crashed         atomic.Bool
	recovered       bool
	listening       atomic.Bool

	// recoveryDone is closed once startup (including any recovery) has
	// finished; calls that race ahead of context restoration wait on it
	// instead of faulting with "no component".
	recoveryDone     chan struct{}
	recoveryDoneOnce sync.Once

	// lastRecovery holds the stats of the most recent crash-recovery
	// run, nil before any recovery has happened.
	recMu        sync.Mutex
	lastRecovery *RecoveryStats

	// engine is the in-flight replay engine of a recovery run, attached
	// at admission and detached when the drain completes cleanly; nil
	// otherwise, so the serve hot path pays one atomic pointer load.
	engine atomic.Pointer[replayEngine]

	// Time-to-first-call accounting: restore() arms the stamp at
	// recovery start (ttfcBase = universe-clock nanos), and the serve
	// path's first call past a ready gate disarms it and records the
	// latency — with lazy admission that is the headline "perceived
	// downtime" number.
	ttfcArmed atomic.Bool
	ttfcBase  atomic.Int64
	ttfcNanos atomic.Int64

	// pendingCkpt is the begin-LSN of a checkpoint written but not yet
	// covered by a force; the first force whose stable watermark moves
	// past pendingCkptEnd (the end-checkpoint record) publishes it in the
	// log's root (Section 4.3).
	ckptMu         sync.Mutex
	pendingCkpt    atomic.Uint64 // an ids.LSN; written under ckptMu, loaded without it by every force's early-out
	pendingCkptEnd ids.LSN
}

// component is one row of the component table (paper Table 1).
type component struct {
	id        ids.CompID
	name      string
	obj       any
	disp      *rpc.Dispatcher
	ctype     msg.ComponentType
	roMethods map[string]bool
	ctx       *Context
}

func newProcess(m *Machine, name string, procID ids.ProcID, cfg Config) (*Process, error) {
	model := disk.Model(disk.HostModel{})
	if m.u.cfg.DiskModel != nil {
		model = m.u.cfg.DiskModel(m.name, name)
	}
	logPath := filepath.Join(m.dir, name+".log")
	log, err := wal.OpenSet(logPath, model, 1)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = m.u.metrics
	}
	log.SetMetrics(reg)
	tr := cfg.Trace
	if tr == nil {
		tr = m.u.cfg.Trace
	}
	// The commit window sleeps on the universe clock, so a virtual
	// clock drives group commit deterministically in tests.
	log.StartGroupCommit(cfg.WAL.GroupCommit, m.u.cfg.Clock)
	p := &Process{
		u:            m.u,
		m:            m,
		name:         name,
		procID:       procID,
		cfg:          cfg,
		addr:         m.u.addrFor(m.name, name),
		log:          log,
		logPath:      logPath,
		metrics:      reg,
		obs:          obs.RuntimeView(reg),
		tr:           tr,
		contexts:     make(map[ids.CompID]*Context),
		byName:       make(map[string]*Context),
		components:   make(map[ids.CompID]*component),
		nextCompID:   1,
		lastCalls:    newLastCallTable(),
		remoteTypes:  newRemoteTypeTable(),
		recoveryDone: make(chan struct{}),
	}
	if cfg.Injector != nil {
		cfg.Injector.bind(p)
	}
	return p, nil
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// ProcID returns the stable logical process ID.
func (p *Process) ProcID() ids.ProcID { return p.procID }

// Machine returns the hosting machine.
func (p *Process) Machine() *Machine { return p.m }

// Config returns the process's runtime switches.
func (p *Process) Config() Config { return p.cfg }

// Recovered reports whether this process instance performed recovery
// at start (i.e. it is a restart of a crashed process).
func (p *Process) Recovered() bool { return p.recovered }

// LastRecovery returns the stats of this process's most recent crash
// recovery, or ok=false if it has never recovered.
func (p *Process) LastRecovery() (RecoveryStats, bool) {
	p.recMu.Lock()
	defer p.recMu.Unlock()
	if p.lastRecovery == nil {
		return RecoveryStats{}, false
	}
	s := *p.lastRecovery
	// The first post-recovery call may land after the stats were
	// published (always, for eager mode); merge the stamp in here so
	// callers see it as soon as it exists.
	if n := p.ttfcNanos.Load(); n > 0 {
		s.TimeToFirstCallNanos = n
	}
	return s, true
}

// armFirstCall starts the time-to-first-call clock at recovery begin.
func (p *Process) armFirstCall(start time.Time) {
	p.ttfcBase.Store(start.UnixNano())
	p.ttfcNanos.Store(0)
	p.ttfcArmed.Store(true)
}

// noteFirstCall stamps time-to-first-call once per recovery: the first
// incoming call admitted past its context's ready gate. The steady
// state (disarmed) costs one atomic load on the serve path.
func (p *Process) noteFirstCall() {
	if !p.ttfcArmed.Load() || !p.ttfcArmed.CompareAndSwap(true, false) {
		return
	}
	d := p.u.cfg.Clock.Now().UnixNano() - p.ttfcBase.Load()
	if d <= 0 {
		d = 1 // clock granularity; "armed and called" must read as >0
	}
	p.ttfcNanos.Store(d)
	if p.cfg.Recovery.Mode == RecoveryLazy {
		p.obs.RecoveryLazyTTFCMicros.Observe(d / 1000)
	}
}

// DrainRecovery blocks until a lazy recovery's background drain has
// replayed every context (or the process crashes mid-drain), returning
// the first replay failure if any. Eager mode — where StartProcess
// joined the drain itself — and a process that never recovered return
// immediately.
func (p *Process) DrainRecovery() error {
	if e := p.engine.Load(); e != nil {
		return e.join()
	}
	return nil
}

// setLastRecovery completes s with the log's read counters and
// publishes a copy of it.
func (p *Process) setLastRecovery(s *RecoveryStats) {
	st := p.log.Stats()
	s.LogReads, s.LogBytesRead = st.ReadOps, st.ReadBytes
	pub := *s
	p.recMu.Lock()
	p.lastRecovery = &pub
	p.recMu.Unlock()
}

// LogStats exposes the log activity counters (forces per experiment,
// Table 8's "Number of Forces").
func (p *Process) LogStats() wal.Stats { return p.log.Stats() }

// LogDir returns the process's recovery-log directory (for
// phoenix-logdump and operational tooling).
func (p *Process) LogDir() string { return p.logPath }

// ResetLogStats zeroes the log counters between experiment phases.
func (p *Process) ResetLogStats() { p.log.ResetStats() }

// SetLogSegmentBytes overrides the log's segment roll-over threshold
// (small values let tests and space-bounded deployments trim eagerly).
func (p *Process) SetLogSegmentBytes(n int64) { p.log.SetSegmentBytes(n) }

func (p *Process) listen() error {
	if err := p.u.cfg.Net.Listen(p.addr, p.handleRequest); err != nil {
		return err
	}
	p.listening.Store(true)
	return nil
}

// CreateOption configures component creation.
type CreateOption func(*createOpts)

type createOpts struct {
	ctype     msg.ComponentType
	roMethods []string
	subs      []subSpec
}

type subSpec struct {
	name string
	obj  any
}

// WithType sets the component type (default Persistent).
func WithType(t msg.ComponentType) CreateOption {
	return func(o *createOpts) { o.ctype = t }
}

// WithReadOnlyMethods declares the Section 3.3 read-only attribute on
// the named methods: they neither change component fields nor make
// non-read-only outgoing calls, and are logged per Algorithm 5.
func WithReadOnlyMethods(names ...string) CreateOption {
	return func(o *createOpts) { o.roMethods = append(o.roMethods, names...) }
}

// WithSubordinate co-locates a subordinate component in the new
// context (Section 3.2.1). Subordinates only serve calls from their
// parent and sibling subordinates; those calls cross no context
// boundary and are neither intercepted nor logged.
func WithSubordinate(name string, obj any) CreateOption {
	return func(o *createOpts) { o.subs = append(o.subs, subSpec{name: name, obj: obj}) }
}

// Create hosts a component in a new context of this process and logs
// its creation record (with post-construction field state, so recovery
// re-instantiates without replaying construction). The component object
// must be a pointer to a struct; its exported fields are its
// recoverable state.
func (p *Process) Create(name string, obj any, opts ...CreateOption) (*Handle, error) {
	if p.crashed.Load() {
		return nil, fmt.Errorf("core: process %s has crashed", p.name)
	}
	if err := validateName("component", name); err != nil {
		return nil, err
	}
	o := createOpts{ctype: msg.Persistent}
	for _, opt := range opts {
		opt(&o)
	}
	if o.ctype == msg.Subordinate {
		return nil, fmt.Errorf("core: subordinates are created via WithSubordinate or Ctx.CreateSubordinate, not Create")
	}
	p.mu.Lock()
	if _, ok := p.byName[name]; ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: component %q already exists in process %s", name, p.name)
	}
	p.mu.Unlock()

	parent, err := p.newComponent(name, obj, o.ctype, o.roMethods)
	if err != nil {
		return nil, err
	}
	cx := &Context{
		p:        p,
		parent:   parent,
		uri:      ids.MakeURI(p.m.name, p.name, name),
		subs:     make(map[string]*component),
		subsByID: make(map[ids.CompID]*component),
	}
	parent.ctx = cx
	cx.ready = make(chan struct{})
	cx.markReady()
	bindRefs(cx, obj)
	for _, ss := range o.subs {
		if _, err := cx.addSubordinate(ss.name, ss.obj); err != nil {
			return nil, err
		}
	}

	// Log and force the creation record: the context's replay starting
	// point when no state record exists, and what recovery uses to
	// re-instantiate the components ("recovers the process tables,
	// contexts and components", Section 4.1). Stateless components get
	// one too — no messages are ever logged at them, but recovery
	// still reconstructs the component itself.
	rec, err := cx.creationRecord()
	if err != nil {
		return nil, err
	}
	lsn, err := p.appendRec(rec, nil)
	if err != nil {
		return nil, err
	}
	if err := p.force(nil); err != nil {
		return nil, err
	}
	cx.creationLSN = lsn
	cx.restartLSN = lsn
	cx.lastLSN = lsn

	p.mu.Lock()
	if _, ok := p.byName[name]; ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: component %q already exists in process %s", name, p.name)
	}
	p.contexts[parent.id] = cx
	p.byName[name] = cx
	p.mu.Unlock()

	if aware, ok := parent.obj.(ContextAware); ok {
		aware.AttachContext(&Ctx{cx: cx})
	}
	return &Handle{cx: cx}, nil
}

// newComponent allocates a component table entry.
func (p *Process) newComponent(name string, obj any, ctype msg.ComponentType, roMethods []string) (*component, error) {
	disp, err := rpc.NewDispatcher(obj)
	if err != nil {
		return nil, err
	}
	ro := make(map[string]bool, len(roMethods))
	for _, m := range roMethods {
		if _, ok := disp.Method(m); !ok {
			return nil, fmt.Errorf("core: read-only method %q not found on %T", m, obj)
		}
		ro[m] = true
	}
	RegisterComponentType(obj)
	p.mu.Lock()
	c := &component{
		id:        ids.CompID(p.nextCompID),
		name:      name,
		obj:       obj,
		disp:      disp,
		ctype:     ctype,
		roMethods: ro,
	}
	p.nextCompID++
	p.components[c.id] = c
	p.mu.Unlock()
	return c, nil
}

// Lookup returns the handle of a hosted component (after recovery, the
// way an application reattaches to its components).
func (p *Process) Lookup(name string) (*Handle, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cx, ok := p.byName[name]
	if !ok {
		return nil, false
	}
	return &Handle{cx: cx}, true
}

// Components lists hosted parent component names, sorted.
func (p *Process) Components() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.byName))
	for n := range p.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// forceTo makes the log stable up to lsn: the caller waits only until
// its own records are durable, not until the global tail is. It then
// finishes any process checkpoint the sync covered.
//
// site, when non-nil, is the per-site force counter of the paper's
// Tables 4-5 accounting (force.at_send, force.at_reply, ...). It is
// incremented only when this request issued the device sync: clean
// forces are free, and requests satisfied by someone else's sync (a
// piggyback or a group-commit batch) count under wal.group.syncs_saved
// instead — so the per-site sum stays equal to wal.forces.
func (p *Process) forceTo(site *obs.Counter, lsn ids.LSN) error {
	out, err := p.log.SyncTo(lsn)
	return p.finishForce(site, out, err)
}

// force forces the whole log tail (creation and checkpoint paths; the
// message disciplines use forceTo with the context's last LSN).
func (p *Process) force(site *obs.Counter) error {
	out, err := p.log.SyncAll()
	return p.finishForce(site, out, err)
}

func (p *Process) finishForce(site *obs.Counter, out wal.SyncOutcome, err error) error {
	if err != nil {
		return err
	}
	if site != nil && out == wal.SyncIssued {
		site.Inc()
	}
	return p.completeCheckpoint()
}

// completeCheckpoint publishes a pending process checkpoint once its
// records are covered by the stable watermark (Section 4.3: "Once a
// process checkpoint has been flushed to the log (possibly by a later
// send message), the log manager writes and forces the LSN of the
// begin checkpoint record into a well-known file" — here the root of
// the log directory, wal.Log.Publish). With the LSN-aware
// force API a sync need not cover the whole tail, so the check is
// against the end-checkpoint record's LSN, not "any force happened".
func (p *Process) completeCheckpoint() error {
	if p.pendingCkpt.Load() == 0 {
		return nil
	}
	p.ckptMu.Lock()
	begin, end := ids.LSN(p.pendingCkpt.Load()), p.pendingCkptEnd
	p.ckptMu.Unlock()
	if begin.IsNil() || p.log.SyncedLSN() <= end {
		return nil
	}
	p.ckptMu.Lock()
	if ids.LSN(p.pendingCkpt.Load()) != begin {
		// A newer checkpoint superseded the one we saw; its own force
		// will publish it.
		p.ckptMu.Unlock()
		return nil
	}
	p.pendingCkpt.Store(0)
	p.pendingCkptEnd = ids.NilLSN
	p.ckptMu.Unlock()
	// One write: the mark, and how far the log is stable now — the next
	// open need not check that much for a torn tail. The log drops a
	// publisher that a newer checkpoint overtook on the way here.
	return p.log.Publish(begin)
}

// TrimLog reclaims the dead log prefix: everything before the oldest
// position recovery could still need — the minimum over every
// context's restart LSN, every last-call entry's reply LSN, and the
// well-known checkpoint LSN. Whole dead segments are deleted. It is the
// one way to reclaim log space: nothing trims on its own.
func (p *Process) TrimLog() error {
	keep := p.reclaimPoint()
	if keep.IsNil() {
		return nil
	}
	before := p.log.Stats().TrimmedBytes
	if err := p.log.TrimHead(keep); err != nil {
		return err
	}
	if p.log.Stats().TrimmedBytes > before {
		p.obs.Trims.Inc()
	}
	return nil
}

// reclaimPoint returns the trim floor: the mark in the log's root — as
// last published, or as loaded by a restart that has yet to checkpoint:
// recovery scans from it — lowered to anything recovery could still
// need now (every live context's restart LSN, every last-call entry's
// reply-content LSN: duplicate replies are served from the log). With
// no mark recovery scans the log from its start, and nothing may be
// trimmed: the result is nil.
func (p *Process) reclaimPoint() ids.LSN {
	keep := p.log.Mark()
	if keep.IsNil() {
		return keep
	}
	p.mu.Lock()
	for _, cx := range p.contexts {
		if r := cx.restartLSN; !r.IsNil() && r < keep {
			keep = r
		}
	}
	p.mu.Unlock()
	if r := p.lastCalls.minReplyLSN(); !r.IsNil() && r < keep {
		keep = r
	}
	return keep
}

// appendRec appends a record, accounting it to the per-kind record
// counters (the paper's message kinds 1-4 plus the creation/state/
// checkpoint records). The record names its frame type and its owning
// context — so a payload cannot be framed under another kind — and
// encodes itself straight into the log's scratch buffer, so the
// per-call append allocates nothing. head is the owning context's
// chainHead for an incoming call or the reply to an outgoing one, which
// the log links into the context's chain, else nil. A traced record
// also drops a StageWALAppend span.
func (p *Process) appendRec(rec record, head *atomic.Uint64) (ids.LSN, error) {
	t, key, tref := rec.head()
	traced := p.tr != nil && !tref.IsZero()
	var tstart int64
	if traced {
		tstart = p.tr.Now()
	}
	lsn, err := p.log.AppendLinked(uint64(key), t, rec, head)
	if err == nil {
		recCounter(p.obs, t).Inc()
		if traced {
			p.tr.Record(trace.SpanData{
				Ref:    trace.Ref{Trace: tref.Trace, Span: p.tr.NewSpan()},
				Parent: tref.Span,
				Stage:  trace.StageWALAppend,
				Start:  tstart,
				End:    p.tr.Now(),
				LSN:    uint64(lsn),
				Proc:   p.name,
			})
		}
	}
	return lsn, err
}

// forceTraced wraps forceTo with a StageSyncWait span — the time a
// commit point spent waiting for durability (group-commit window plus
// device sync, or the inline sync). It delegates to forceTo, the
// blessed force chokepoint, so phoenix-lint's forcesite check needs no
// new allowlist entry for it.
func (p *Process) forceTraced(site *obs.Counter, lsn ids.LSN, tref trace.Ref, method string) error {
	if p.tr == nil || tref.IsZero() {
		return p.forceTo(site, lsn)
	}
	tstart := p.tr.Now()
	err := p.forceTo(site, lsn)
	p.tr.Record(trace.SpanData{
		Ref:    trace.Ref{Trace: tref.Trace, Span: p.tr.NewSpan()},
		Parent: tref.Span,
		Stage:  trace.StageSyncWait,
		Start:  tstart,
		End:    p.tr.Now(),
		LSN:    uint64(lsn),
		Proc:   p.name,
		Method: method,
	})
	return err
}

// recCounter maps a record type to its rec.* counter in m, or nil for a
// kind the runtime does not write — the one mapping, shared by the live
// path (appendRec) and DumpLog's per-kind summary.
func recCounter(m *obs.RuntimeMetrics, t wal.RecordType) *obs.Counter {
	switch t {
	case recCreation:
		return m.RecCreation
	case recIncoming:
		return m.RecIncoming
	case recReplySent:
		return m.RecReplySent
	case recReplyContent:
		return m.RecReplyContent
	case recOutgoing:
		return m.RecOutgoing
	case recOutgoingReply:
		return m.RecOutgoingReply
	case recCtxState:
		return m.RecCtxState
	case recBeginCkpt:
		return m.RecBeginCkpt
	case recCkptCtxTable:
		return m.RecCkptCtxTable
	case recCkptLastCall:
		return m.RecCkptLastCall
	case recEndCkpt:
		return m.RecEndCkpt
	default:
		return nil
	}
}

// Metrics returns the registry this process accounts to.
func (p *Process) Metrics() *obs.Registry { return p.metrics }

// markStarted opens the process for component lookups (startup,
// including any recovery, is complete — or the process is going away
// and waiters must not hang).
func (p *Process) markStarted() {
	p.recoveryDoneOnce.Do(func() { close(p.recoveryDone) })
}

// Crash fail-stops the process: the transport address goes silent, the
// log buffer (everything not yet forced) is lost, and all in-memory
// runtime state is abandoned — except the flight recorder, which is
// dumped next to the log first (a real deployment's crash handler
// writes the ring from a signal handler; the virtual process does the
// moral equivalent). The machine's recovery service is notified, which
// restarts the process if auto-restart is enabled.
func (p *Process) Crash() {
	if !p.crashed.CompareAndSwap(false, true) {
		return
	}
	p.u.cfg.Net.Unlisten(p.addr)
	p.listening.Store(false)
	if err := p.log.Discard(); err != nil {
		// The log was not cut back to its stable watermark: the restart
		// image is not the modelled one.
		p.obs.CrashDiscardErrors.Inc()
	}
	p.dumpFlightRecorder()
	p.markStarted() // release any waiters; they will see the crash
	if e := p.engine.Load(); e != nil {
		e.stop()
	}
	p.m.svc.NotifyCrash(p.name)
}

// FlightRecorder returns the process's resolved flight recorder (nil
// when tracing is off).
func (p *Process) FlightRecorder() *trace.Recorder { return p.tr }

// DumpFlightRecorder writes the current ring contents to path as a
// dump, the JSON the debug endpoint serves (phoenix-trace reads it
// back). Unlike the crash
// path's automatic dump this can run any time, e.g. from an operational
// endpoint.
func (p *Process) DumpFlightRecorder(path string) error {
	return trace.WriteDump(path, p.tr.Snapshot())
}

// dumpFlightRecorder persists the ring next to the log on a crash as
// <proc>.ftr.N — N counts restarts, so a trace that crosses several
// crashes keeps every generation's spans. Best-effort by design: the
// process is going down and a dump failure must not perturb the crash
// path.
func (p *Process) dumpFlightRecorder() {
	if p.tr == nil || p.tr.Len() == 0 {
		return
	}
	base := strings.TrimSuffix(p.logPath, ".log")
	for n := 0; ; n++ {
		path := fmt.Sprintf("%s.ftr.%d", base, n)
		if _, err := os.Stat(path); err == nil {
			continue // this generation already dumped; keep it
		}
		_ = trace.WriteDump(path, p.tr.Snapshot())
		return
	}
}

// shutdown releases resources without simulating a crash (clean exit
// for error paths; unforced data is written out). The log-close error
// is returned so the error path that triggered the shutdown can fold
// it into what it reports.
func (p *Process) shutdown() error {
	p.u.cfg.Net.Unlisten(p.addr)
	p.listening.Store(false)
	p.markStarted()
	return p.log.Close()
}

// Close cleanly stops the process (tests and examples; a clean close is
// indistinguishable from a crash to the recovery protocol, except that
// no buffered log data is lost). The error is the log's close error:
// a failed final flush means buffered records did not reach the device.
func (p *Process) Close() error {
	if !p.crashed.CompareAndSwap(false, true) {
		return nil
	}
	p.u.cfg.Net.Unlisten(p.addr)
	p.listening.Store(false)
	p.markStarted()
	if e := p.engine.Load(); e != nil {
		e.stop()
	}
	return p.log.Close()
}

// Crashed reports whether the process has failed or been closed.
func (p *Process) Crashed() bool { return p.crashed.Load() }

// validateName rejects names that would corrupt component URIs
// (phoenix://machine/process/component) or on-disk paths.
func validateName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("core: %s name must not be empty", kind)
	}
	if strings.ContainsAny(name, "/\\ \t\n") {
		return fmt.Errorf("core: %s name %q must not contain separators or whitespace", kind, name)
	}
	if name == "." || name == ".." {
		return fmt.Errorf("core: %s name %q is reserved", kind, name)
	}
	return nil
}

// crashSignal is panicked through the stack when failure injection (or
// a mid-call Crash) tears the process down; interception boundaries
// recover it and turn it into an unavailability error.
type crashSignal struct{ proc string }

// checkAlive panics with crashSignal if the process has crashed, so
// in-flight executions unwind instead of externalizing results.
func (p *Process) checkAlive() {
	if p.crashed.Load() {
		panic(crashSignal{proc: p.name})
	}
}
