package core

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/obs/trace"
	"repro/internal/rpc"
	"repro/internal/serial"
	"repro/internal/wal"
)

// This file is the recovery manager of paper Section 4.4.
//
// Process crash recovery runs in two passes over the log. Pass 1
// (restore, this file) scans from the well-known checkpoint LSN (or
// the log start) to the end, finding every context that existed at the
// crash, the LSN of its latest state record (or creation record) —
// contexts are then restored from those records — and the LSN of its
// newest message record, the head of its chain. Pass 2 (admit) hands
// the replay engine (recovery_engine.go) each context's restart LSN and
// head; replaying a context reads its chain off the log, head to
// restart LSN (recovery_replay.go), and replays it:
// message records are buffered until the next incoming call record
// arrives, at which point the previous incoming call is replayed with
// its outgoing calls answered from the buffer; the final buffered call
// is replayed at the end of the chain, where a missing outgoing reply
// switches the context back to live execution. The last call table is
// rebuilt along the way — LSNs only; reply bodies are fetched from the
// log when a duplicate call actually needs them.

// RecoveryStats summarizes one crash-recovery run: what each pass
// cost, how much log it covered, and how much replay work it did.
// Durations are measured on the universe clock, so simulated runs
// (NewVirtualClock, scaled bench clocks) report model time consistent
// with every other model-time measurement; the recovery.* obs
// histograms keep a wall-time copy. Retrieve the latest run's stats
// with Process.LastRecovery, or from the EventRecoveryDone event that
// carries them.
type RecoveryStats struct {
	// Pass1Duration covers the context-discovery scan plus context
	// restoration; Pass2Duration covers message replay; TotalDuration
	// is the whole recovery including event bookkeeping.
	Pass1Duration time.Duration
	Pass2Duration time.Duration
	TotalDuration time.Duration
	// ContextsRestored counts contexts rebuilt from creation or state
	// records.
	ContextsRestored int
	// RecordsScanned counts every record read from the log: by Pass 1,
	// and twice per record of backlog — the walk that finds a context's
	// chain and the replay that decodes it. It scales with the records
	// past the checkpoint plus the backlog, whatever the log retains.
	RecordsScanned int64
	// LogReads counts the device reads the restart issued and
	// LogBytesRead the bytes they returned (wal.Stats.ReadOps/ReadBytes
	// when published), by phase: LogReadsPass1, the scan past the
	// checkpoint (the log's tail check too) and the restart records;
	// LogReadsWalk, the chain walks and the worker's hold of the backlog
	// (wal.Reader.Hold); LogReadsReplay, the replays — none under a hold;
	// a first touch, or a backlog the worker cannot hold, passes over a
	// chain's span twice, a block per miss.
	LogReads, LogBytesRead                      int64
	LogReadsPass1, LogReadsWalk, LogReadsReplay int64
	// CallsReplayed counts incoming calls re-executed; CallsSuppressed
	// counts outgoing sends answered from the log during those replays.
	CallsReplayed   int64
	CallsSuppressed int64
	// Mode is the recovery mode this run executed under.
	Mode RecoveryMode
	// TimeToFirstCallNanos is the universe-clock time from recovery
	// start to the first incoming call admitted past the ready gate
	// after the restart (0 until such a call arrives). In eager mode
	// that is at least the full replay time; in lazy mode it is
	// typically Pass 1 plus one context's backlog.
	TimeToFirstCallNanos int64
	// ContextsOnDemand counts contexts whose backlog was replayed
	// because a call touched them; ContextsBackground counts contexts
	// replayed by the background worker. Eager runs report them too:
	// there a touch is a resumed tail call reaching a same-process
	// context (or a client racing the restart), the rest is background.
	ContextsOnDemand   int
	ContextsBackground int
	// CtxReplayMaxNanos and CtxReplayTotalNanos summarize per-context
	// backlog replay latency on the universe clock, in either mode
	// (the full distribution is the recovery.lazy.ctx_replay_micros
	// histogram).
	CtxReplayMaxNanos   int64
	CtxReplayTotalNanos int64
}

// restorePlan carries Pass-1 results across the restore/admit
// lifecycle boundary: the contexts that were rebuilt (restart-LSN
// order), their restart LSNs and chain heads, and the in-progress
// stats and trace of the run. A nil plan: admission has nothing to replay.
type restorePlan struct {
	stats    RecoveryStats
	recRun   trace.Ref
	recStart time.Time // universe clock, recovery begin
	recWall  time.Time // wall clock, for the recovery.* obs histograms
	restart  map[ids.CompID]ids.LSN
	heads    map[ids.CompID]ids.LSN // newest message record; absent: none
	restored []*Context
}

// restore is the explicit first lifecycle phase of a restart: Pass 1
// of recovery. It scans the log from the marks its root held, rebuilds
// the context tables and restart-LSN map, re-materializes every
// context's components and seeds the last-call table — everything the
// process needs to *route* traffic, but not yet the replayed state to
// *serve* it (contexts stay unready). The returned plan feeds admit;
// it is nil when there is nothing to replay. It runs before any
// concurrent calls arrive at restored contexts (they block on the
// per-context ready latches).
func (p *Process) restore() (*restorePlan, error) {
	if p.log.Empty() {
		return nil, nil // registered before, but nothing was ever logged
	}

	// Each shard scans from its mark in the root the log's open read, or
	// from its own start when there is none: no checkpoint published,
	// hints lost, or a vector that predates the shard's era.
	marks, shards := p.log.Marks(), p.log.Shards()
	scannedFrom := make(map[uint32]ids.LSN, len(shards))
	for _, sh := range shards {
		from, ok := marks[sh.Stream]
		if !ok {
			from = sh.Log.Start()
		}
		scannedFrom[sh.Stream] = from
	}
	start := scannedFrom[shards[0].Stream]
	p.obs.RecoveryRuns.Inc()
	clock := p.u.cfg.Clock
	var stats RecoveryStats
	stats.Mode = p.cfg.Recovery.Mode
	recStart, recWall := clock.Now(), time.Now()
	// Arm the time-to-first-call measurement: the first call admitted
	// past a ready gate after this point stamps RecoveryStats.
	p.armFirstCall(recStart)
	// The recovery run gets a trace of its own for its scan spans;
	// replayed calls stitch to their original traces instead (see
	// replayIncoming), so a timeline shows both the call's replay and
	// which recovery run performed it.
	recRun := p.tr.NewTrace()
	detail := fmt.Sprintf("scanning from %v", start)
	if len(shards) > 1 {
		detail = fmt.Sprintf("scanning %d shards from %v", len(shards), start)
	}
	p.emitEvent(Event{Kind: EventRecoveryStart, LSN: start, Detail: detail})

	// ---- Pass 1: find contexts and their restart LSNs. ----
	pass1Start, pass1Wall := clock.Now(), time.Now()
	pass1TS := p.tr.Now()
	restart := make(map[ids.CompID]ids.LSN)
	heads := make(map[ids.CompID]ids.LSN)
	pass1 := func(rec wal.Record) error {
		stats.RecordsScanned++
		switch rec.Type {
		case recCreation:
			// Process checkpoints re-emit creation records for
			// stateless contexts so log trimming can advance past the
			// original; like state records, the newest wins.
			var cr creationRec
			if err := decodeRec(rec.Payload, &cr); err != nil {
				return err
			}
			if rec.LSN > restart[cr.Ctx] {
				restart[cr.Ctx] = rec.LSN
			}
		case recCtxState:
			var sr ctxStateRec
			if err := decodeRec(rec.Payload, &sr); err != nil {
				return err
			}
			if rec.LSN > restart[sr.Ctx] {
				restart[sr.Ctx] = rec.LSN
			}
		case recCkptCtxTable:
			var ct ckptCtxTableRec
			if err := decodeRec(rec.Payload, &ct); err != nil {
				return err
			}
			for _, e := range ct.Entries {
				if e.RestartLSN > restart[e.Ctx] {
					restart[e.Ctx] = e.RestartLSN
				}
				// The table speaks for what this scan does not pass; a
				// head inside the scan's range may have died unforced
				// with the crash, and the scan sees what survived.
				if h := e.ChainHead; h > heads[e.Ctx] && h < scannedFrom[h.Stream()] {
					heads[e.Ctx] = h
				}
			}
		case recCkptLastCall:
			var lc ckptLastCallRec
			if err := decodeRec(rec.Payload, &lc); err != nil {
				return err
			}
			for _, e := range lc.Entries {
				p.lastCalls.seed(e)
			}
		case recIncoming, recOutgoingReply:
			ctx, id, err := msgHead(rec.Type, rec.Payload)
			if err != nil {
				return err
			}
			if rec.LSN > heads[ctx] {
				heads[ctx] = rec.LSN
			}
			if !id.IsZero() {
				p.lastCalls.seed(lastCallSaved{Caller: id.Caller, Seq: id.Seq, Ctx: ctx})
			}
		case recReplyContent:
			var rc replyContentRec
			if err := decodeRec(rec.Payload, &rc); err != nil {
				return err
			}
			if !rc.CallID.IsZero() {
				p.lastCalls.seed(lastCallSaved{
					Caller: rc.CallID.Caller, Seq: rc.CallID.Seq,
					ReplyLSN: rec.LSN, Ctx: rc.Ctx,
				})
			}
		case recDisciplineChange:
			// Rebuild the adaptive controller's committed state in scan
			// order (a method's records share its context's stream, so
			// scan order is temporal order — newest wins). A log written
			// with the controller on but restarted with it off replays
			// fine without this: every record needed for replay exists
			// under any discipline history.
			if p.adaptive != nil {
				var dc disciplineChangeRec
				if err := decodeRec(rec.Payload, &dc); err != nil {
					return err
				}
				p.adaptive.restoreChange(&dc)
			}
		default:
			// Reply-sent and outgoing records say what a context emitted;
			// replay regenerates that. Checkpoint brackets carry nothing.
		}
		return nil
	}
	// Shards scan in era order (oldest first). Restart maxima are
	// per-context, and a context's records occupy one stream per era
	// with monotonically growing stream tags, so the raw-LSN "newest
	// wins" comparisons above stay temporally correct across shards.
	for _, sh := range shards {
		if err := sh.Log.Scan(scannedFrom[sh.Stream], pass1); err != nil {
			return nil, fmt.Errorf("recovery pass 1: %w", err)
		}
	}
	p.recoverySpan(recRun, pass1TS)
	if len(restart) == 0 {
		stats.LogReadsPass1 = p.log.Stats().ReadOps
		p.obs.RecoveryPass1Micros.Observe(time.Since(pass1Wall).Microseconds())
		p.obs.RecoveryMicros.Observe(time.Since(recWall).Microseconds())
		stats.Pass1Duration = clock.Now().Sub(pass1Start)
		stats.TotalDuration = clock.Now().Sub(recStart)
		p.setLastRecovery(&stats)
		p.recovered = true
		p.emitEvent(Event{Kind: EventRecoveryDone, Recovery: &stats,
			Detail: "no contexts to restore"})
		return nil, nil
	}

	// Restore every context from its restart record, in LSN order through
	// one reader: they sit in clusters (creations, a checkpoint's saves).
	lsns := make([]ids.LSN, 0, len(restart))
	for _, lsn := range restart {
		lsns = append(lsns, lsn)
	}
	slices.Sort(lsns)
	rd := p.log.NewReader()
	restored := make([]*Context, 0, len(lsns))
	for _, lsn := range lsns {
		cx, err := p.restoreContext(rd, lsn)
		if err != nil {
			return nil, fmt.Errorf("restore context at %v: %w", lsn, err)
		}
		// Whatever the context logs next links behind its newest record.
		cx.chainHead.Store(uint64(heads[cx.parent.id]))
		restored = append(restored, cx)
	}
	p.obs.ContextsRestored.Add(int64(len(restored)))
	p.obs.RecoveryPass1Micros.Observe(time.Since(pass1Wall).Microseconds())
	stats.ContextsRestored = len(restored)
	stats.LogReadsPass1 = p.log.Stats().ReadOps
	stats.Pass1Duration = clock.Now().Sub(pass1Start)
	return &restorePlan{
		stats:    stats,
		recRun:   recRun,
		recStart: recStart,
		recWall:  recWall,
		restart:  restart,
		heads:    heads,
		restored: restored,
	}, nil
}

// admit is the explicit second lifecycle phase of a restart: Pass 2.
// The replay engine is armed over the restored contexts, and then the
// mode decides only who waits: eager (the default) joins the engine's
// drain, so the process
// is fully caught up — or has failed to start — when admit returns;
// lazy returns at once and lets first touches and the background
// worker replay around live traffic. A nil plan (nothing restored) is
// a no-op.
func (p *Process) admit(plan *restorePlan) error {
	if plan == nil {
		return nil
	}
	admitStart, admitWall := p.u.cfg.Clock.Now(), time.Now()
	eng := p.startEngine(plan, admitStart, admitWall)
	if p.cfg.Recovery.Mode == RecoveryLazy {
		return nil
	}
	if err := eng.join(); err != nil {
		return fmt.Errorf("recovery pass 2: %w", err)
	}
	if p.crashed.Load() {
		return fmt.Errorf("recovery pass 2: process crashed during replay")
	}
	return nil
}

// restoreContext reads the creation or state record at lsn through rd
// (it is in its file; decoding copies what it keeps) and rebuilds the
// context: fresh component instances via the type registry, field state
// via the serial package, component references re-resolved.
func (p *Process) restoreContext(rd *wal.Reader, lsn ids.LSN) (*Context, error) {
	rec, err := rd.ReadAt(lsn)
	if err != nil {
		return nil, err
	}
	var (
		ctxID      ids.CompID
		uri        ids.URI
		comps      []compRecord
		lastOutSeq uint64
		subCounter uint32
		lastCalls  []lastCallSaved
	)
	switch rec.Type {
	case recCreation:
		var cr creationRec
		if err := decodeRec(rec.Payload, &cr); err != nil {
			return nil, err
		}
		ctxID, uri, comps = cr.Ctx, cr.URI, cr.Comps
		subCounter = uint32(len(cr.Comps) - 1)
	case recCtxState:
		var sr ctxStateRec
		if err := decodeRec(rec.Payload, &sr); err != nil {
			return nil, err
		}
		ctxID, uri, comps = sr.Ctx, sr.URI, sr.Comps
		lastOutSeq, subCounter, lastCalls = sr.LastOutSeq, sr.SubCounter, sr.LastCalls
	default:
		return nil, fmt.Errorf("core: restart LSN %v holds a %s record", lsn, recName(rec.Type))
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("core: record at %v has no components", lsn)
	}

	cx := &Context{
		p:          p,
		uri:        uri,
		subs:       make(map[string]*component),
		subsByID:   make(map[ids.CompID]*component),
		lastOutSeq: lastOutSeq,
		subCounter: subCounter,
		restartLSN: lsn,
		ready:      make(chan struct{}),
	}
	// First materialize instances so local references resolve.
	built := make([]*component, len(comps))
	for i, cr := range comps {
		obj, err := newComponentInstance(cr.GoType)
		if err != nil {
			return nil, err
		}
		disp, err := rpc.NewDispatcher(obj)
		if err != nil {
			return nil, err
		}
		ro := make(map[string]bool, len(cr.ROMethods))
		for _, m := range cr.ROMethods {
			ro[m] = true
		}
		c := &component{
			id: cr.ID, name: cr.Name, obj: obj, disp: disp,
			ctype: cr.Type, roMethods: ro, ctx: cx,
		}
		built[i] = c
		if i == 0 {
			cx.parent = c
		} else {
			cx.subs[c.name] = c
			cx.subsByID[c.id] = c
		}
	}
	// Then restore field states, resolving component references.
	res := &ctxResolver{cx: cx}
	for i, cr := range comps {
		st, err := serial.DecodeState(cr.State)
		if err != nil {
			return nil, err
		}
		if err := serial.Restore(built[i].obj, st, res); err != nil {
			return nil, fmt.Errorf("restore %s: %w", cr.Name, err)
		}
	}
	for _, e := range lastCalls {
		p.lastCalls.seed(e)
	}

	_, _, compName, err := uri.Split()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.contexts[ctxID] = cx
	p.byName[compName] = cx
	for _, c := range built {
		p.components[c.id] = c
	}
	if uint32(ctxID) >= p.nextCompID {
		p.nextCompID = uint32(ctxID) + 1
	}
	p.mu.Unlock()
	cx.attachAware()
	// Stateless contexts have no message records to replay; they are
	// available as soon as their components are rebuilt.
	if cx.parent.ctype.Stateless() {
		cx.markReady()
	}
	return cx, nil
}

// ctxResolver re-obtains component references for restored fields:
// remote references from their URIs (as live Refs owned by the
// restored context), local references from subordinate component IDs.
type ctxResolver struct {
	cx *Context
}

func (r *ctxResolver) ResolveRemote(u ids.URI, fieldType reflect.Type) (any, error) {
	ref := &Ref{u: r.cx.p.u, p: r.cx.p, owner: r.cx, target: u}
	if !reflect.TypeOf(ref).AssignableTo(fieldType) {
		return nil, fmt.Errorf("core: cannot restore remote ref into field of type %s", fieldType)
	}
	return ref, nil
}

func (r *ctxResolver) ResolveLocal(id ids.CompID, fieldType reflect.Type) (any, error) {
	comp, ok := r.cx.subsByID[id]
	if !ok {
		return nil, fmt.Errorf("core: no subordinate with ID %d in context %s", id, r.cx.uri)
	}
	l := &Local{comp: comp}
	if !reflect.TypeOf(l).AssignableTo(fieldType) {
		return nil, fmt.Errorf("core: cannot restore local ref into field of type %s", fieldType)
	}
	return l, nil
}

// recoverySpan records one recovery scan pass under the run's own
// trace (recRun from recover()); free when tracing is off.
func (p *Process) recoverySpan(run trace.Ref, start int64) {
	if p.tr == nil || run.IsZero() {
		return
	}
	p.tr.Record(trace.SpanData{
		Ref:    trace.Ref{Trace: run.Trace, Span: p.tr.NewSpan()},
		Parent: run.Span,
		Stage:  trace.StageRecoveryScan,
		Start:  start,
		End:    p.tr.Now(),
		Proc:   &p.name,
	})
}

// RecoverContext recovers a single failed context inside a live
// process — the easier case at the end of Section 4.4: "The state
// record LSN can be found in the context table and the state record
// (or creation record) can be read from the log and the context
// restored... Then the log after the state record is read and incoming
// method calls for the context are replayed." The context must be
// quiescent (its component "failed"; no calls in flight).
//
// During a recovery run it doubles as the API form of on-demand
// replay: a context still waiting in the engine's pending set is
// replayed in place (Pass 1 already rebuilt its components), exactly
// as if a call had touched it.
func (p *Process) RecoverContext(name string) error {
	p.mu.Lock()
	old, ok := p.byName[name]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no component %q in process %s", name, p.name)
	}
	if e := p.engine.Load(); e != nil {
		if done, err := e.recoverNow(old); done {
			return err
		}
	}
	restart := func() ids.LSN {
		p.mu.Lock()
		defer p.mu.Unlock()
		return old.restartLSN
	}()
	if restart.IsNil() {
		return fmt.Errorf("core: context %s has no restart record (stateless?)", old.uri)
	}
	if err := p.log.Flush(); err != nil { // a state record is not forced: it may be buffered still
		return err
	}
	rd := p.log.NewReader()
	cx, err := p.restoreContext(rd, restart) // re-registers under the same name/ID
	if err != nil {
		return err
	}
	defer cx.markReady()
	// No Pass 1 ran: the failed context's own head starts the walk.
	head := ids.LSN(old.chainHead.Load())
	cx.chainHead.Store(uint64(head))
	chain, err := walkChain(rd, cx.parent.id, head, restart)
	if err != nil {
		return err
	}
	tail, err := p.replayContext(cx, chain, rd)
	if err != nil {
		return err
	}
	return p.replayTail(cx, tail)
}
