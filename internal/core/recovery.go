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
// (restore, this file) is analysis only: it scans from the well-known
// checkpoint LSN (or the log start) to the end, finding every context
// that existed at the crash, the LSN of its latest state record (or
// creation record) and the LSN of its newest message record, the head
// of its chain; it reads each winning restart record once, seeds the
// last call table — LSNs only; reply bodies are fetched from the log
// when a duplicate call actually needs them — and registers the
// context as a shell. Pass 2 (admit) hands the shells to the replay
// engine (recovery_engine.go), and each comes back by the one way
// there is (bringBack, recovery_replay.go): its components are built,
// its chain is read off the log, head to restart LSN, and replayed:
// message records are buffered until the next incoming call record
// arrives, at which point the previous incoming call is replayed with
// its outgoing calls answered from the buffer; the final buffered call
// is replayed at the end of the chain, where a missing outgoing reply
// switches the context back to live execution.

// RecoveryStats summarizes one crash-recovery run: what each pass
// cost, how much log it covered, and how much replay work it did.
// Durations are measured on the universe clock, so simulated runs
// (NewVirtualClock, scaled bench clocks) report model time consistent
// with every other model-time measurement; the recovery.*_micros obs
// histograms observe the same durations. Retrieve the latest run's stats
// with Process.LastRecovery.
type RecoveryStats struct {
	// Pass1Duration covers the analysis scan plus reading the restart
	// records and registering the contexts; Pass2Duration covers
	// bringing every context back (build, walk, replay); TotalDuration
	// is the whole recovery.
	Pass1Duration time.Duration
	Pass2Duration time.Duration
	TotalDuration time.Duration
	// ContextsRestored counts contexts restored from creation or state
	// records.
	ContextsRestored int
	// RecordsScanned counts every record read from the log: by Pass 1,
	// and once per record of backlog — the walk that finds a context's
	// chain decodes it, and the replay reads nothing. It scales with the
	// records past the checkpoint plus the backlog, whatever the log
	// retains.
	RecordsScanned int64
	// LogReads counts the device reads the restart issued and
	// LogBytesRead the bytes they returned (wal.Stats.ReadOps/ReadBytes
	// when published), by phase: LogReadsPass1, the scan past the
	// checkpoint (the log's tail check too) and the restart records;
	// LogReadsWalk, the chain walks and the worker's hold of the backlog
	// (wal.Reader.Hold). The two add up to LogReads. A first touch, or a
	// backlog the worker cannot hold, passes over a chain's span once, a
	// block per miss.
	LogReads, LogBytesRead      int64
	LogReadsPass1, LogReadsWalk int64
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
// lifecycle boundary: the contexts restored (restart-LSN order), each
// a shell holding its restart LSN and chain head, and the in-progress
// stats and trace of the run. A nil plan: admission has nothing to replay.
type restorePlan struct {
	stats    RecoveryStats
	recRun   trace.Ref
	recStart time.Time // universe clock, recovery begin
	restored []*Context
}

// restore is the explicit first lifecycle phase of a restart: Pass 1
// of recovery, analysis only. It scans the log from the mark its root
// held, finds every context's restart LSN and chain head, reads each
// restart record once, seeds the last-call table and registers every
// context as a shell — everything the process needs to *route* traffic
// and answer duplicates, but no component yet (a shell stays unready
// until bringBack). The returned plan feeds admit; it is nil when there
// is nothing to replay. It runs before any concurrent calls arrive at
// restored contexts (they block on the per-context ready latches).
func (p *Process) restore() (*restorePlan, error) {
	if p.log.Empty() {
		return nil, nil // registered before, but nothing was ever logged
	}

	// The scan starts from the mark in the root the log's open read, or
	// from the log's start when there is none: no checkpoint published,
	// or the root missing or damaged.
	start := p.log.Mark()
	if start.IsNil() {
		start = p.log.Start()
	}
	p.obs.RecoveryRuns.Inc()
	clock := p.u.cfg.Clock
	var stats RecoveryStats
	stats.Mode = p.cfg.Recovery.Mode
	recStart := clock.Now()
	// Arm the time-to-first-call measurement: the first call admitted
	// past a ready gate after this point stamps RecoveryStats.
	p.armFirstCall(recStart)
	// The recovery run gets a trace of its own for its scan spans;
	// replayed calls stitch to their original traces instead (see
	// replayIncoming), so a timeline shows both the call's replay and
	// which recovery run performed it.
	recRun := p.tr.NewTrace()

	// ---- Pass 1: find contexts and their restart LSNs. ----
	pass1Start := clock.Now()
	pass1TS := p.tr.Now()
	restart := make(map[ids.CompID]ids.LSN)
	heads := make(map[ids.CompID]ids.LSN)
	pass1 := func(rec wal.Record) error {
		stats.RecordsScanned++
		switch rec.Type {
		case recCreation, recCtxState:
			// The newest restart record wins (a checkpoint saves the state
			// of every idle context, so the trim can pass the older one).
			// Only its owner is read here: the winners are decoded once,
			// below.
			ctx, err := recCtx(rec.Payload)
			if err != nil {
				return err
			}
			if rec.LSN > restart[ctx] {
				restart[ctx] = rec.LSN
			}
		case recCkptCtxTable:
			var ct ckptCtxTableRec
			if err := decodeRec(rec, &ct); err != nil {
				return err
			}
			for _, e := range ct.Entries {
				if e.RestartLSN > restart[e.Ctx] {
					restart[e.Ctx] = e.RestartLSN
				}
				// The table speaks for what this scan does not pass; a
				// head inside the scan's range may have died unforced
				// with the crash, and the scan sees what survived.
				if h := e.ChainHead; h > heads[e.Ctx] && h < start {
					heads[e.Ctx] = h
				}
			}
		case recCkptLastCall:
			var lc ckptLastCallRec
			if err := decodeRec(rec, &lc); err != nil {
				return err
			}
			for _, e := range lc.Entries {
				p.lastCalls.seed(e)
			}
		case recIncoming, recOutgoingReply:
			ctx, id, err := msgHead(rec)
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
			if err := decodeRec(rec, &rc); err != nil {
				return err
			}
			if id := rc.Reply.ID; !id.IsZero() {
				p.lastCalls.seed(lastCallSaved{
					Caller: id.Caller, Seq: id.Seq,
					ReplyLSN: rec.LSN, Ctx: rc.Ctx,
				})
			}
		default:
			// Reply-sent and outgoing records say what a context emitted;
			// replay regenerates that. Checkpoint brackets carry nothing,
			// and nor does a kind this runtime does not write (12, the
			// retired discipline-change record).
		}
		return nil
	}
	if err := p.log.Scan(start, pass1); err != nil {
		return nil, fmt.Errorf("recovery pass 1: %w", err)
	}
	p.recoverySpan(recRun, pass1TS)
	if len(restart) == 0 {
		stats.LogReadsPass1 = p.log.Stats().ReadOps
		stats.Pass1Duration = clock.Now().Sub(pass1Start)
		stats.TotalDuration = clock.Now().Sub(recStart)
		p.obs.RecoveryPass1Micros.Observe(stats.Pass1Duration.Microseconds())
		p.obs.RecoveryMicros.Observe(stats.TotalDuration.Microseconds())
		p.setLastRecovery(&stats)
		p.recovered = true
		return nil, nil
	}

	// Read the restart records in LSN order through one reader — they sit
	// in clusters (creations, a checkpoint's saves) — decoding each once.
	// A state record's last calls go into the table here, not when its
	// context comes back: duplicate elimination and the trim floor
	// (reclaimPoint) must be complete before the first call is admitted.
	lsns := make([]ids.LSN, 0, len(restart))
	for _, lsn := range restart {
		lsns = append(lsns, lsn)
	}
	slices.Sort(lsns)
	rd := p.log.NewReader()
	restored := make([]*Context, 0, len(lsns))
	for _, lsn := range lsns {
		sr, err := readRestart(rd, lsn)
		if err == nil {
			for _, e := range sr.LastCalls {
				p.lastCalls.seed(e)
			}
			pc := sr.Comps[0]
			cx := p.newShell(component{id: sr.ctx, name: pc.Name, ctype: pc.Type, roMethods: roSet(pc.ROMethods)},
				sr.URI, lsn, heads[sr.ctx])
			cx.saved = sr
			if pc.Type.Stateless() { // no chain: back at once
				_, err = p.bringBack(cx, rd)
				cx.markReady()
			}
			restored = append(restored, cx)
		}
		if err != nil {
			return nil, fmt.Errorf("restore context at %v: %w", lsn, err)
		}
	}
	p.obs.ContextsRestored.Add(int64(len(restored)))
	stats.ContextsRestored = len(restored)
	stats.LogReadsPass1 = p.log.Stats().ReadOps
	stats.Pass1Duration = clock.Now().Sub(pass1Start)
	p.obs.RecoveryPass1Micros.Observe(stats.Pass1Duration.Microseconds())
	return &restorePlan{
		stats:    stats,
		recRun:   recRun,
		recStart: recStart,
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
	eng := p.startEngine(plan, p.u.cfg.Clock.Now())
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

// readRestart reads a context's restart record at lsn through rd — its
// creation record or a state record — and decodes it as a state record:
// a creation record is a state with no outgoing call made and no last
// calls.
func readRestart(rd *wal.Reader, lsn ids.LSN) (*ctxStateRec, error) {
	rec, err := rd.ReadAt(lsn)
	if err != nil {
		return nil, err
	}
	sr := new(ctxStateRec)
	switch rec.Type {
	case recCreation:
		var cr creationRec
		if err := decodeRec(rec, &cr); err != nil {
			return nil, err
		}
		sr.ctx, sr.URI, sr.Comps, sr.SubCounter = cr.ctx, cr.URI, cr.Comps, uint32(len(cr.Comps)-1)
	case recCtxState:
		if err := decodeRec(rec, sr); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: restart LSN %v holds a %s record", lsn, recName(rec.Type))
	}
	if len(sr.Comps) == 0 {
		return nil, fmt.Errorf("core: record at %v has no components", lsn)
	}
	return sr, nil
}

// roSet is a component record's read-only methods as a lookup set.
func roSet(methods []string) map[string]bool {
	ro := make(map[string]bool, len(methods))
	for _, m := range methods {
		ro[m] = true
	}
	return ro
}

// newShell registers a context that is known but not back yet: its
// parent's identity, name, type and read-only set, its restart LSN and
// its chain head — what routing, checkpoints and the trim floor read —
// with no component built and its ready latch shut. Whatever it logs
// next links behind head. bringBack builds it.
func (p *Process) newShell(parent component, uri ids.URI, restart, head ids.LSN) *Context {
	cx := &Context{p: p, parent: &parent, uri: uri, ready: make(chan struct{})}
	parent.ctx = cx
	cx.restartLSN.Store(uint64(restart))
	cx.chainHead.Store(uint64(head))
	p.mu.Lock()
	p.contexts[parent.id] = cx
	p.byName[parent.name] = cx
	p.nextCompID = max(p.nextCompID, uint32(parent.id)+1)
	p.mu.Unlock()
	return cx
}

// build materializes a shell's components from its restart record —
// the one Pass 1 decoded, or, repairing a live context, the record at
// restart read through rd: fresh instances via the type registry, field
// state via the serial package, component references re-resolved.
func (p *Process) build(cx *Context, restart ids.LSN, rd *wal.Reader) error {
	sr := cx.saved
	cx.saved = nil
	if sr == nil {
		var err error
		if sr, err = readRestart(rd, restart); err != nil {
			return err
		}
	}
	cx.lastOutSeq, cx.subCounter = sr.LastOutSeq, sr.SubCounter
	cx.subs = make(map[string]*component, len(sr.Comps)-1)
	cx.subsByID = make(map[ids.CompID]*component, len(sr.Comps)-1)
	// First materialize instances so local references resolve.
	built := make([]*component, len(sr.Comps))
	for i, cr := range sr.Comps {
		obj, err := newComponentInstance(cr.GoType)
		if err != nil {
			return err
		}
		disp, err := rpc.NewDispatcher(obj)
		if err != nil {
			return err
		}
		c := cx.parent
		if i > 0 {
			c = &component{id: cr.ID, name: cr.Name, ctype: cr.Type, roMethods: roSet(cr.ROMethods), ctx: cx}
			cx.subs[c.name] = c
			cx.subsByID[c.id] = c
		}
		c.obj, c.disp = obj, disp
		built[i] = c
	}
	// Then restore field states, resolving component references.
	res := &ctxResolver{cx: cx}
	for i, cr := range sr.Comps {
		st, err := serial.DecodeState(cr.State)
		if err != nil {
			return err
		}
		if err := serial.Restore(built[i].obj, st, res); err != nil {
			return fmt.Errorf("restore %s: %w", cr.Name, err)
		}
	}
	p.mu.Lock()
	for _, c := range built {
		p.components[c.id] = c
	}
	p.mu.Unlock()
	cx.attachAware()
	return nil
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
		Proc:   p.name,
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
// brought back in place, exactly as if a call had touched it. Outside
// one, the failed context is replaced by a shell of itself — no Pass 1
// ran: its own restart LSN and chain head — and brought back the same
// way.
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
	if err := p.log.Flush(); err != nil { // a state record is not forced: it may be buffered still
		return err
	}
	op := old.parent
	cx := p.newShell(component{id: op.id, name: op.name, ctype: op.ctype, roMethods: op.roMethods},
		old.uri, old.restart(), ids.LSN(old.chainHead.Load()))
	defer cx.markReady()
	_, err := p.bringBack(cx, p.log.NewReader())
	return err
}
