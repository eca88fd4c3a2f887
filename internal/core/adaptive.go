package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// AdaptiveConfig enables the adaptive discipline controller
// (Config.Adaptive): instead of an operator assigning logging
// disciplines statically per component type, the runtime observes each
// (component, method)'s interaction pattern — who calls it, whether it
// mutates state, how its outgoing calls fan out — and promotes the
// method's effective discipline past the configured baseline once the
// pattern has held for PromoteAfter consecutive epochs: Algorithm 1 →
// Algorithm 2 for persistent↔persistent traffic, read-only detection →
// Algorithm 5, distinct-server fan-out → per-method multi-call elision.
// Every promotion/demotion is made durable as a discipline-change log
// record and forced *before* it takes effect, so recovery replays each
// call under the discipline that was active when it was logged.
//
// The zero value is disabled: the runtime behaves bit-for-bit like the
// static configuration.
type AdaptiveConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// Window is the observation epoch length, measured on the universe
	// clock (model time under a virtual bench clock). 0 means 100ms.
	Window time.Duration
	// PromoteAfter is how many consecutive qualifying epochs a method
	// must accumulate before its discipline is promoted. 0 means 3.
	PromoteAfter int
	// DemoteAfter is how many consecutive disqualifying epochs undo a
	// promotion. 0 means 2. A read-only promotion is also demoted
	// immediately (mid-call, before the reply externalizes) when the
	// runtime guard catches a mutation or an outgoing call.
	DemoteAfter int
}

func (c AdaptiveConfig) window() time.Duration {
	if c.Window > 0 {
		return c.Window
	}
	return 100 * time.Millisecond
}

func (c AdaptiveConfig) promoteAfter() int {
	if c.PromoteAfter > 0 {
		return c.PromoteAfter
	}
	return 3
}

func (c AdaptiveConfig) demoteAfter() int {
	if c.DemoteAfter > 0 {
		return c.DemoteAfter
	}
	return 2
}

// Discipline is the adaptive controller's per-method effective logging
// discipline. DiscBaseline means "whatever the static Config says";
// the promoted values select the optimized treatments of Sections 3.1
// and 3.3 for one (component, method) pair. The Section 3.5 multi-call
// elision is an orthogonal per-method flag, not a Discipline member —
// it composes with DiscBaseline and DiscAlgo2.
type Discipline int

const (
	// DiscBaseline applies the statically configured treatment.
	DiscBaseline Discipline = iota
	// DiscAlgo2 applies Section 3.1's optimized treatment to the
	// method: message 1 logged without forcing for internal callers
	// (external callers keep Algorithm 3's forced long/short records),
	// message 2 a pure force, and the method's own outgoing calls use
	// the optimized client side (message 3 unwritten, message 4
	// unforced). Safe unconditionally: replay recreates the unlogged
	// messages, and an uncommitted reply is redriven by the client.
	DiscAlgo2
	// DiscReadOnly applies Algorithm 5: the server logs nothing for
	// the method's calls. Unlike the static read-only treatment, the
	// promoted form keeps duplicate elimination and the last-call
	// table (the promotion is a bet, not a contract), and a runtime
	// guard re-checks every promoted execution: a mutation or an
	// outgoing call demotes the method and captures the damage with a
	// forced state record before the reply externalizes.
	DiscReadOnly
)

// String names the discipline. Out-of-range values render stably.
func (d Discipline) String() string {
	switch d {
	case DiscBaseline:
		return "baseline"
	case DiscAlgo2:
		return "algo2"
	case DiscReadOnly:
		return "readonly"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// methodKey identifies a tracked method: the hosting context (parent
// component ID — the unit log records are keyed by) plus method name.
type methodKey struct {
	ctx    ids.CompID
	method string
}

// methodStat is the controller's per-method state: the committed
// discipline, the sticky read-only disqualification, the current
// epoch's observation accumulators, and the hysteresis streaks.
type methodStat struct {
	disc      Discipline
	multiCall bool
	// roBarred is sticky: once a method is seen mutating state or
	// making an outgoing call it can never be promoted to read-only
	// again (and candidate hashing stops paying for it).
	roBarred bool

	// Epoch accumulators, reset at each epoch boundary.
	calls    int64 // executions observed this epoch
	internal int64 // ... from persistent internal callers
	outCalls int64 // outgoing calls made by those executions
	fanOuts  int64 // executions fanning out to >=2 distinct servers, no repeats
	repeats  int64 // repeated-target outgoing calls (disqualify multi-call)
	roClean  int64 // guarded executions that stayed read-only

	// Hysteresis streaks: consecutive qualifying/disqualifying epochs.
	algo2Promote int
	algo2Demote  int
	roPromote    int
	mcPromote    int
	mcDemote     int
}

// disciplineChange is one controller decision: move a method from one
// effective state to another. It is decided under the controller mutex
// but applied outside it — the caller appends and forces the
// discipline-change record first, then commits the flip.
type disciplineChange struct {
	Ctx       ids.CompID
	Method    string
	From, To  Discipline
	MultiCall bool // the multi-call flag after the change
	Barred    bool
	Epoch     uint64
	promote   bool
}

// adaptiveController observes method executions, advances an
// epoch-based state machine on the universe clock, and decides
// discipline transitions with hysteresis. Its mutex is a leaf: it is
// taken under Context.mu on the serve path and never held across log
// I/O — decisions are returned to the caller, made durable, and only
// then committed.
type adaptiveController struct {
	p            *Process
	rt           *obs.RuntimeMetrics
	window       time.Duration
	promoteAfter int
	demoteAfter  int
	// baselineMode caches LogMode == LogBaseline: Algorithm-2
	// promotion only means something when the static discipline is
	// Algorithm 1 (the optimized mode already applies it globally).
	baselineMode bool

	mu        sync.Mutex
	epoch     uint64
	epochBase time.Time
	stats     map[methodKey]*methodStat
}

func newAdaptiveController(p *Process) *adaptiveController {
	return &adaptiveController{
		p:            p,
		rt:           p.obs,
		window:       p.cfg.Adaptive.window(),
		promoteAfter: p.cfg.Adaptive.promoteAfter(),
		demoteAfter:  p.cfg.Adaptive.demoteAfter(),
		baselineMode: p.cfg.LogMode == LogBaseline,
		epochBase:    p.u.cfg.Clock.Now(),
		stats:        make(map[methodKey]*methodStat),
	}
}

func (ac *adaptiveController) statLocked(k methodKey) *methodStat {
	st := ac.stats[k]
	if st == nil {
		st = &methodStat{}
		ac.stats[k] = st
	}
	return st
}

// adaptiveServe is the serve path's per-call snapshot of a method's
// effective treatment, taken once before logging decisions so one
// execution never straddles a discipline flip.
type adaptiveServe struct {
	active   bool
	algo2    bool
	readOnly bool
	// guard asks the serve path to hash component state before and
	// after the execution: while the method is a read-only candidate
	// (to observe mutation behavior) and while it is promoted (the
	// safety net).
	guard   bool
	hashErr bool
	preHash uint64
}

// serveState snapshots the method's current effective treatment.
func (ac *adaptiveController) serveState(ctx ids.CompID, method string) adaptiveServe {
	ac.mu.Lock()
	st := ac.statLocked(methodKey{ctx: ctx, method: method})
	s := adaptiveServe{
		active:   true,
		algo2:    st.disc == DiscAlgo2,
		readOnly: st.disc == DiscReadOnly,
		guard:    st.disc == DiscReadOnly || (st.disc == DiscBaseline && !st.roBarred),
	}
	ac.mu.Unlock()
	return s
}

// clientState reports the client-side treatment of the method the
// context is currently executing: optimized message-3/4 handling when
// the method is Algorithm-2 promoted, and per-method multi-call
// elision.
func (ac *adaptiveController) clientState(ctx ids.CompID, method string) (opt, multiCall bool) {
	if method == "" {
		return false, false
	}
	ac.mu.Lock()
	if st := ac.stats[methodKey{ctx: ctx, method: method}]; st != nil {
		opt = st.disc == DiscAlgo2
		multiCall = st.multiCall
	}
	ac.mu.Unlock()
	return opt, multiCall
}

// execObservation is one finished execution as seen by the serve path.
type execObservation struct {
	ctx       ids.CompID
	method    string
	external  bool
	guarded   bool
	roViolate bool // guarded and mutated (or the state hash failed)
	outCalls  int
	repeats   int
}

// observe folds one execution into the current epoch and, when the
// epoch window has elapsed on the universe clock, finalizes the epoch
// and returns the discipline changes it decided. The caller must make
// each change durable (discipline-change record, forced) and then
// commit it; a dropped change is simply re-decided next epoch.
func (ac *adaptiveController) observe(o execObservation) []disciplineChange {
	ac.mu.Lock()
	st := ac.statLocked(methodKey{ctx: o.ctx, method: o.method})
	st.calls++
	if !o.external {
		st.internal++
	}
	st.outCalls += int64(o.outCalls)
	st.repeats += int64(o.repeats)
	if o.outCalls >= 2 && o.repeats == 0 {
		st.fanOuts++
	}
	if o.outCalls > 0 || (o.guarded && o.roViolate) {
		st.roBarred = true
	} else if o.guarded {
		st.roClean++
	}
	changes := ac.maybeFinalizeLocked()
	ac.mu.Unlock()
	return changes
}

// maybeFinalizeLocked closes the epoch once its window has elapsed:
// every tracked method's streaks advance and pending transitions are
// collected. Accumulators reset; streaks survive across epochs.
func (ac *adaptiveController) maybeFinalizeLocked() []disciplineChange {
	now := ac.p.u.cfg.Clock.Now()
	if now.Sub(ac.epochBase) < ac.window {
		return nil
	}
	ac.epochBase = now
	ac.epoch++
	ac.rt.AdaptiveEpochs.Inc()
	var changes []disciplineChange
	for k, st := range ac.stats {
		if ch, ok := ac.finalizeStatLocked(k, st); ok {
			changes = append(changes, ch)
		}
		st.calls, st.internal, st.outCalls = 0, 0, 0
		st.fanOuts, st.repeats, st.roClean = 0, 0, 0
	}
	// Deterministic record order when several methods flip at once.
	sort.Slice(changes, func(i, j int) bool {
		if changes[i].Ctx != changes[j].Ctx {
			return changes[i].Ctx < changes[j].Ctx
		}
		return changes[i].Method < changes[j].Method
	})
	return changes
}

// finalizeStatLocked advances one method's streaks from this epoch's
// accumulators and decides its transition, if any. An epoch with no
// calls is neutral: streaks neither grow nor reset, so an idle method
// does not flap.
func (ac *adaptiveController) finalizeStatLocked(k methodKey, st *methodStat) (disciplineChange, bool) {
	if st.calls > 0 {
		// Read-only: every execution this epoch was guarded and clean,
		// and none made an outgoing call.
		if !st.roBarred && st.roClean == st.calls && st.outCalls == 0 {
			st.roPromote++
		} else {
			st.roPromote = 0
		}
		// Algorithm 2: the method participates in persistent↔persistent
		// traffic on either side — internal callers, or outgoing calls
		// of its own. Only meaningful past an Algorithm-1 baseline.
		if ac.baselineMode && (st.internal > 0 || st.outCalls > 0) {
			st.algo2Promote++
			st.algo2Demote = 0
		} else if ac.baselineMode {
			st.algo2Demote++
			st.algo2Promote = 0
		}
		// Multi-call: distinct-server fan-out with no repeated targets.
		// A repeat disqualifies the epoch (the elision mechanism itself
		// stays safe — repeats force — but the promotion stops paying).
		if st.repeats > 0 {
			st.mcDemote++
			st.mcPromote = 0
		} else if st.fanOuts > 0 {
			st.mcPromote++
			st.mcDemote = 0
		}
	}

	newDisc := st.disc
	switch st.disc {
	case DiscBaseline:
		// Read-only wins over Algorithm 2: it elides strictly more.
		if st.roPromote >= ac.promoteAfter {
			newDisc = DiscReadOnly
		} else if st.algo2Promote >= ac.promoteAfter {
			newDisc = DiscAlgo2
		}
	case DiscAlgo2:
		if st.algo2Demote >= ac.demoteAfter {
			newDisc = DiscBaseline
		}
	case DiscReadOnly:
		// Demotion is guard-driven (violateRO), not epoch-driven: a
		// promoted method that stays read-only has no disqualifying
		// signal an epoch could see.
	default:
	}

	newMC := st.multiCall
	if newDisc == DiscReadOnly {
		newMC = false // read-only methods make no outgoing calls
	} else if !st.multiCall && st.mcPromote >= ac.promoteAfter {
		newMC = true
	} else if st.multiCall && st.mcDemote >= ac.demoteAfter {
		newMC = false
	}

	if newDisc == st.disc && newMC == st.multiCall {
		return disciplineChange{}, false
	}
	promote := (newDisc != st.disc && st.disc == DiscBaseline) ||
		(newDisc == st.disc && newMC && !st.multiCall)
	return disciplineChange{
		Ctx: k.ctx, Method: k.method,
		From: st.disc, To: newDisc,
		MultiCall: newMC, Barred: st.roBarred,
		Epoch: ac.epoch, promote: promote,
	}, true
}

// commit flips a method's committed state to a decided change after
// the caller has made it durable. A change whose From no longer
// matches (a racing violation demoted the method first) is dropped.
func (ac *adaptiveController) commit(ch disciplineChange) {
	ac.mu.Lock()
	st := ac.statLocked(methodKey{ctx: ch.Ctx, method: ch.Method})
	if st.disc != ch.From {
		ac.mu.Unlock()
		return
	}
	ac.commitLocked(st, ch)
	ac.mu.Unlock()
}

func (ac *adaptiveController) commitLocked(st *methodStat, ch disciplineChange) {
	ac.gaugeLocked(st.disc, -1)
	ac.gaugeLocked(ch.To, +1)
	if st.multiCall != ch.MultiCall {
		if ch.MultiCall {
			ac.rt.AdaptiveDiscMulti.Add(1)
		} else {
			ac.rt.AdaptiveDiscMulti.Add(-1)
		}
	}
	st.disc = ch.To
	st.multiCall = ch.MultiCall
	st.roBarred = st.roBarred || ch.Barred
	st.algo2Promote, st.algo2Demote = 0, 0
	st.roPromote = 0
	st.mcPromote, st.mcDemote = 0, 0
	if ch.promote {
		ac.rt.AdaptivePromotions.Inc()
	} else {
		ac.rt.AdaptiveDemotions.Inc()
	}
}

// gaugeLocked moves the "methods currently under treatment d" gauge.
func (ac *adaptiveController) gaugeLocked(d Discipline, delta int64) {
	switch d {
	case DiscAlgo2:
		ac.rt.AdaptiveDiscAlgo2.Add(delta)
	case DiscReadOnly:
		ac.rt.AdaptiveDiscReadOnly.Add(delta)
	case DiscBaseline:
	default:
	}
}

// violateRO handles a guard trip on a promoted read-only method: the
// execution mutated state or made an outgoing call. The demotion is
// committed in memory immediately — applying a demotion before it is
// durable is safe, it only adds logging — and the returned change must
// still be appended by the caller, ahead of the forced state record
// that captures the unlogged execution's damage.
func (ac *adaptiveController) violateRO(ctx ids.CompID, method string) (disciplineChange, bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	st := ac.statLocked(methodKey{ctx: ctx, method: method})
	st.roBarred = true
	if st.disc != DiscReadOnly {
		return disciplineChange{}, false
	}
	ch := disciplineChange{
		Ctx: ctx, Method: method,
		From: DiscReadOnly, To: DiscBaseline,
		MultiCall: st.multiCall, Barred: true, Epoch: ac.epoch,
	}
	ac.commitLocked(st, ch)
	ac.rt.AdaptiveROViolations.Inc()
	return ch, true
}

// restoreChange replays a mined discipline-change record during
// recovery's Pass 1, rebuilding the controller's committed state in
// scan order (newest wins per method; records of one method share its
// context's stream, so scan order is temporal order). Gauges are
// adjusted; transition counters are not — a restart restores state, it
// does not transition.
func (ac *adaptiveController) restoreChange(r *disciplineChangeRec) {
	ac.mu.Lock()
	st := ac.statLocked(methodKey{ctx: r.Ctx, method: r.Method})
	ac.gaugeLocked(st.disc, -1)
	ac.gaugeLocked(r.To, +1)
	if st.multiCall != r.MultiCall {
		if r.MultiCall {
			ac.rt.AdaptiveDiscMulti.Add(1)
		} else {
			ac.rt.AdaptiveDiscMulti.Add(-1)
		}
	}
	st.disc = r.To
	st.multiCall = r.MultiCall
	st.roBarred = st.roBarred || r.Barred
	if r.Epoch > ac.epoch {
		ac.epoch = r.Epoch
	}
	ac.mu.Unlock()
}

// reemitChanges writes the controller's current non-default states as
// discipline-change records inside a process checkpoint, so log
// trimming cannot strand a promotion's only record behind the
// well-known mark. Snapshot under the mutex, append outside it.
func (ac *adaptiveController) reemitChanges() error {
	ac.mu.Lock()
	recs := make([]*disciplineChangeRec, 0)
	for k, st := range ac.stats {
		if st.disc == DiscBaseline && !st.multiCall && !st.roBarred {
			continue
		}
		recs = append(recs, &disciplineChangeRec{
			Ctx: k.ctx, Method: k.method,
			From: st.disc, To: st.disc,
			MultiCall: st.multiCall, Barred: st.roBarred, Epoch: ac.epoch,
		})
	}
	ac.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Ctx != recs[j].Ctx {
			return recs[i].Ctx < recs[j].Ctx
		}
		return recs[i].Method < recs[j].Method
	})
	for _, r := range recs {
		if _, err := ac.p.appendRec(recDisciplineChange, r.Ctx, r, nil); err != nil {
			return err
		}
	}
	return nil
}

// AdaptiveAssignment is one tracked method's current effective state,
// as exposed by Process.AdaptiveAssignments for benches and tests.
type AdaptiveAssignment struct {
	Ctx        ids.CompID `json:"ctx"`
	Method     string     `json:"method"`
	Discipline string     `json:"discipline"`
	MultiCall  bool       `json:"multi_call,omitempty"`
}

// AdaptiveAssignments lists the controller's per-method discipline
// assignments, sorted by context then method. Nil when the controller
// is disabled.
func (p *Process) AdaptiveAssignments() []AdaptiveAssignment {
	ac := p.adaptive
	if ac == nil {
		return nil
	}
	ac.mu.Lock()
	out := make([]AdaptiveAssignment, 0, len(ac.stats))
	for k, st := range ac.stats {
		out = append(out, AdaptiveAssignment{
			Ctx: k.ctx, Method: k.method,
			Discipline: st.disc.String(), MultiCall: st.multiCall,
		})
	}
	ac.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ctx != out[j].Ctx {
			return out[i].Ctx < out[j].Ctx
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// stateHash fingerprints the context's component state (the same
// deterministic capture state records use) for the read-only guard:
// equal hashes before and after an execution mean no observable field
// mutated. Called with cx.mu held — the context is quiescent.
func (cx *Context) stateHash() (uint64, error) {
	comps, err := cx.captureComponents()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var idb [4]byte
	for _, c := range comps {
		idb[0] = byte(c.ID >> 24)
		idb[1] = byte(c.ID >> 16)
		idb[2] = byte(c.ID >> 8)
		idb[3] = byte(c.ID)
		h.Write(idb[:])
		h.Write(c.State)
	}
	return h.Sum64(), nil
}

// adaptiveAfterExec runs after an execution finished and its reply
// bookkeeping is done, with cx.mu held: it resolves the read-only
// guard (demoting on violation before the reply externalizes), feeds
// the observation into the controller, and applies any epoch decisions
// the observation triggered.
func (p *Process) adaptiveAfterExec(cx *Context, call *msg.Call, ad adaptiveServe) error {
	o := execObservation{
		ctx:      cx.parent.id,
		method:   call.Method,
		external: call.ID.IsZero(),
		outCalls: cx.execOut,
		repeats:  cx.execRepeats,
	}
	if ad.guard {
		o.guarded = true
		switch {
		case ad.hashErr:
			o.roViolate = true
		case cx.execOut > 0:
			// An outgoing call disqualifies by itself; skip the hash.
			o.roViolate = true
		default:
			post, err := cx.stateHash()
			o.roViolate = err != nil || post != ad.preHash
		}
	}
	if ad.readOnly && o.roViolate {
		if err := cx.adaptiveROViolationLocked(call); err != nil {
			return err
		}
	}
	if changes := p.adaptive.observe(o); len(changes) > 0 {
		p.applyDisciplineChanges(changes, call.Trace)
	}
	return nil
}

// adaptiveROViolationLocked demotes a promoted read-only method whose
// execution tripped the guard; called with cx.mu held, like the rest
// of the execution path. The execution ran unlogged (no message-1
// record), so replay cannot recreate its effects: the demote record
// and a state record capturing the post-execution damage are appended
// and forced before the reply externalizes. On any error the caller
// faults the call — the client retries and re-executes under the
// demoted (fully logged) treatment.
func (cx *Context) adaptiveROViolationLocked(call *msg.Call) error {
	p := cx.p
	ch, ok := p.adaptive.violateRO(cx.parent.id, call.Method)
	if ok {
		rec := &disciplineChangeRec{
			Ctx: ch.Ctx, Method: ch.Method, From: ch.From, To: ch.To,
			MultiCall: ch.MultiCall, Barred: ch.Barred, Epoch: ch.Epoch,
		}
		if _, err := p.appendRec(recDisciplineChange, ch.Ctx, rec, nil); err != nil {
			return err
		}
	}
	if err := cx.saveStateLocked(); err != nil {
		return err
	}
	return p.forceTo(p.obs.AdaptiveForceAtChange, cx.lastLSN)
}

// applyDisciplineChanges makes each epoch decision durable — the
// discipline-change record is appended to the method's context stream
// and forced — and only then commits the in-memory flip, so a call
// logged under the new discipline always follows the change record in
// its stream. A failed append or force drops the decision; the streaks
// that produced it persist, so the next epoch re-decides it.
func (p *Process) applyDisciplineChanges(changes []disciplineChange, tref trace.Ref) {
	for _, ch := range changes {
		traced := p.tr != nil && !tref.IsZero()
		var tstart int64
		if traced {
			tstart = p.tr.Now()
		}
		rec := &disciplineChangeRec{
			Ctx: ch.Ctx, Method: ch.Method, From: ch.From, To: ch.To,
			MultiCall: ch.MultiCall, Barred: ch.Barred, Epoch: ch.Epoch,
		}
		lsn, err := p.appendRec(recDisciplineChange, ch.Ctx, rec, nil)
		if err != nil {
			continue
		}
		if err := p.forceTo(p.obs.AdaptiveForceAtChange, lsn); err != nil {
			continue
		}
		p.inject(PointAdaptiveAfterChangeLogged)
		if traced {
			p.tr.Record(trace.SpanData{
				Ref:    trace.Ref{Trace: tref.Trace, Span: p.tr.NewSpan()},
				Parent: tref.Span,
				Stage:  trace.StageDisciplineChange,
				Start:  tstart,
				End:    p.tr.Now(),
				LSN:    uint64(lsn),
				Proc:   &p.name,
				Method: &rec.Method,
			})
		}
		p.adaptive.commit(ch)
	}
}
