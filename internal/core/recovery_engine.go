package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file is the replay engine: the one scheduler of Pass 2, for
// every recovery mode. After Pass 1 has rebuilt the context tables and
// found each context's chain head, every restored context keeps its
// ready latch shut until its own chain has been walked and replayed.
// Background workers — min(max(1, Parallelism), contexts) of them —
// claim contexts hottest-first; a call that touches an unclaimed
// context claims it and replays it on its own goroutine (concurrent
// arrivals wait on the same latch). Eager mode joins the engine before
// the process opens, lazy mode returns after arming it; nothing else
// differs.
//
// A context runs its own tail call and readies itself, with no order
// imposed between contexts. That is safe because the serve path's
// demand hook works for replaying goroutines too: a tail that resumes
// live execution and calls another context of this process either
// claims and replays that context right there, nested, or waits for
// the goroutine that already claimed it — and that goroutine is never
// waiting on us, because a cycle of contexts each blocked mid-call on
// the next would have been a deadlock before the crash as well.
//
// Correctness rests on what Pass 1 guarantees at admission time: the
// last-call table is fully seeded (duplicate elimination works before
// any replay) and restart LSNs are not advanced until a context
// replays (a crash mid-drain loses nothing).

// pendingCtx is one restored-but-unreplayed context in the engine's
// work set: its chain runs from head down to restart.
type pendingCtx struct {
	cx            *Context
	restart, head ids.LSN
}

// replayEngine coordinates one recovery run's Pass 2. It lives in
// Process.engine from admission until the drain completes cleanly, so
// the serve path's only steady-state cost is an atomic nil check.
type replayEngine struct {
	p    *Process
	plan *restorePlan

	// slots is the semaphore bounding concurrent chain walks (on-demand
	// and background alike). Tail replays run slot-free: a resumed tail
	// may demand another context's replay, and must find a slot
	// available rather than a starvation deadlock.
	slots chan struct{}

	admitStart time.Time // universe clock, admission point
	admitWall  time.Time // wall clock, for the recovery.* histograms

	mu          sync.Mutex
	stopped     bool
	pending     map[ids.CompID]*pendingCtx // unclaimed contexts
	remaining   int                        // claimed-but-unfinished + pending
	onDemand    int
	background  int
	replayMax   time.Duration
	replayTotal time.Duration
	failed      map[ids.CompID]error
	firstErr    error

	// owned is the immutable set of contexts this run started with
	// (read-only after startEngine publishes the engine).
	owned map[ids.CompID]bool

	// backlogLo and backlogHi bound all pending chains together, lowest
	// restart LSN to highest head (lo > hi: none): what a worker asks
	// its reader to hold, so interleaved chains share one device read.
	backlogLo, backlogHi ids.LSN

	// failures guards the post-ready failure lookup on the serve path:
	// zero means no mutex needs taking.
	failures atomic.Int32

	stopCh    chan struct{} // closed by stop (crash/close mid-drain)
	done      chan struct{} // closed when the drain finishes or stops
	closeOnce sync.Once

	// workers counts the background goroutines. join waits for them
	// after done closes; stop() must NOT — a crash raised from inside a
	// worker would then self-deadlock.
	workers sync.WaitGroup
}

// startEngine arms the engine over the plan's unready contexts and
// starts the background workers. From here on the serve path admits
// calls, replaying a context on first touch.
func (p *Process) startEngine(plan *restorePlan, admitStart, admitWall time.Time) *replayEngine {
	slots := max(1, p.cfg.Recovery.Parallelism)
	e := &replayEngine{
		p:          p,
		plan:       plan,
		slots:      make(chan struct{}, slots),
		admitStart: admitStart,
		admitWall:  admitWall,
		pending:    make(map[ids.CompID]*pendingCtx),
		owned:      make(map[ids.CompID]bool),
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
		backlogLo:  ^ids.LSN(0),
	}
	for _, cx := range plan.restored {
		select {
		case <-cx.ready:
			continue // stateless: ready since restoration, no backlog
		default:
		}
		id := cx.parent.id
		ent := &pendingCtx{cx: cx, restart: plan.restart[id], head: plan.heads[id]}
		e.pending[id] = ent
		e.owned[id] = true
		if ent.head >= ent.restart {
			e.backlogLo, e.backlogHi = min(e.backlogLo, ent.restart), max(e.backlogHi, ent.head)
		}
	}
	e.remaining = len(e.pending)
	workers := min(slots, e.remaining)
	plan.stats.WorkersUsed = workers
	p.recovered = true
	// Publishing the engine opens it to touching calls: from here on
	// its counters belong to e.mu.
	p.engine.Store(e)
	if workers == 0 {
		e.finalize()
		return e
	}
	p.obs.RecoveryPass2Workers.Observe(int64(workers))
	e.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go e.work()
	}
	return e
}

// demand is the serve path's admission hook, called before the ready
// gate: it bumps the context's traffic counter (the workers' hotness
// signal) and, if the context is still unclaimed, replays its chain on
// this call's goroutine. Losing the claim race just means someone else
// is replaying; the caller falls through to the ready latch.
func (e *replayEngine) demand(cx *Context, call *msg.Call) {
	select {
	case <-cx.ready:
		return
	default:
	}
	cx.arrivals.Add(1)
	ent := e.claim(cx.parent.id)
	if ent == nil {
		return
	}
	_ = e.replayOne(ent, true, call.Trace, &call.Method, e.p.log.NewReader())
}

// recoverNow is RecoverContext's entry into a live run. A context
// still pending replays in place (Pass 1 already rebuilt it); one
// being replayed right now is waited for. handled=false means the
// context is past recovery (or was never part of it) and the caller
// should restore it afresh.
func (e *replayEngine) recoverNow(cx *Context) (handled bool, err error) {
	id := cx.parent.id
	if ent := e.claim(id); ent != nil {
		return true, e.replayOne(ent, true, trace.Ref{}, nil, e.p.log.NewReader())
	}
	select {
	case <-cx.ready:
		return false, nil
	default:
	}
	if e.owned[id] {
		<-cx.ready
		return true, e.replayFailure(id)
	}
	return false, nil
}

// claim removes id from the pending set; the caller that gets a
// non-nil entry owns that context's replay (and its markReady).
func (e *replayEngine) claim(id ids.CompID) *pendingCtx {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil
	}
	ent := e.pending[id]
	delete(e.pending, id)
	return ent
}

// claimHottest picks the pending context with the most observed
// arrivals (ties broken by lowest restart LSN, so the order is
// deterministic under equal traffic) and claims it.
func (e *replayEngine) claimHottest() *pendingCtx {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil
	}
	var best *pendingCtx
	var bestHot int64
	for _, ent := range e.pending {
		hot := ent.cx.arrivals.Load()
		if best == nil || hot > bestHot || (hot == bestHot && ent.restart < best.restart) {
			best, bestHot = ent, hot
		}
	}
	if best != nil {
		delete(e.pending, best.cx.parent.id)
	}
	return best
}

// work is one background worker: it drains the pending set, re-reading
// the hotness counters before each pick so traffic arriving mid-drain
// reorders what is left. Its log reader serves every chain it walks: out
// of the whole backlog, read once, when it can hold that, else by the block.
func (e *replayEngine) work() {
	defer e.workers.Done()
	rd := e.p.log.NewReader()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				return // crashed mid-drain; stop() releases the waiters
			}
			panic(r)
		}
	}()
	for !e.p.crashed.Load() {
		ent := e.claimHottest()
		if ent == nil {
			return
		}
		_ = e.replayOne(ent, false, trace.Ref{}, nil, rd)
	}
}

// replayOne replays a claimed context: under a worker slot the chain
// is walked, newest record to restart LSN, and replayed, oldest first,
// both through the caller's rd; then the tail call runs slot-free (it
// may resume live execution and demand further contexts). It records
// the per-context latency, drops
// a demand-replay span into the flight recorder — under the triggering
// call's trace when there is one, else under the recovery run's own —
// and marks the context ready whatever happened, so waiters unblock
// and find the failure, or the crash that unwound through here.
func (e *replayEngine) replayOne(ent *pendingCtx, onDemand bool, tref trace.Ref, method *string, rd *wal.Reader) error {
	p := e.p
	clock := p.u.cfg.Clock
	start := clock.Now()
	tstart := p.tr.Now()
	defer ent.cx.markReady()
	var err error
	ran := false
	var cost replayCost
	select {
	case e.slots <- struct{}{}:
		ran = true
		var chain []ids.LSN
		var tail ctxTail
		before := rd.Reads()
		if !onDemand && before == 0 {
			rd.Hold(e.backlogLo, e.backlogHi) // a worker's first context: the whole backlog, once
		}
		chain, err = walkChain(rd, ent.cx.parent.id, ent.head, ent.restart)
		cost.walkReads = rd.Reads() - before
		if err == nil {
			tail, err = p.replayContext(ent.cx, chain, rd)
		}
		cost.records, cost.replayReads = 2*int64(len(chain)), rd.Reads()-before-cost.walkReads
		<-e.slots
		if err == nil {
			err = p.replayTail(ent.cx, tail)
		}
	case <-e.stopCh:
		// Stopping: fall through to markReady so waiters reach
		// checkAlive and unwind instead of hanging on the latch.
	}
	if err != nil && p.crashed.Load() {
		err = nil // the log closed under us: the crash's doing, not a replay failure
	}
	if p.tr != nil && ran {
		parent := tref
		if parent.IsZero() {
			parent = e.plan.recRun
		}
		if !parent.IsZero() {
			p.tr.Record(trace.SpanData{
				Ref:    trace.Ref{Trace: parent.Trace, Span: p.tr.NewSpan()},
				Parent: parent.Span,
				Stage:  trace.StageDemandReplay,
				Start:  tstart,
				End:    p.tr.Now(),
				LSN:    uint64(ent.restart),
				Proc:   &p.name,
				Method: method,
			})
		}
	}
	e.finishOne(ent, onDemand, ran, cost, clock.Now().Sub(start), err)
	return err
}

// replayCost is what one context's walk and replay read.
type replayCost struct{ records, walkReads, replayReads int64 }

// finishOne folds one finished replay into the run's accounting and
// triggers finalization when it was the last.
func (e *replayEngine) finishOne(ent *pendingCtx, onDemand, ran bool, cost replayCost, d time.Duration, err error) {
	p := e.p
	e.mu.Lock()
	e.remaining--
	last := e.remaining == 0
	if ran {
		e.plan.stats.RecordsScanned += cost.records
		e.plan.stats.LogReadsWalk += cost.walkReads
		e.plan.stats.LogReadsReplay += cost.replayReads
		if onDemand {
			e.onDemand++
		} else {
			e.background++
		}
		e.replayTotal += d
		e.replayMax = max(e.replayMax, d)
	}
	if err != nil {
		if e.failed == nil {
			e.failed = make(map[ids.CompID]error)
		}
		e.failed[ent.cx.parent.id] = err
		if e.firstErr == nil {
			e.firstErr = err
		}
		e.failures.Add(1)
	}
	e.mu.Unlock()
	if ran {
		if onDemand {
			p.obs.RecoveryLazyOnDemand.Inc()
		} else {
			p.obs.RecoveryLazyBackground.Inc()
		}
		p.obs.RecoveryLazyCtxReplayMicros.Observe(d.Microseconds())
	}
	if last {
		e.finalize()
	}
}

// replayFailure reports the replay error recorded for id, if any. The
// fast path (no failures anywhere) is a single atomic load, so the
// serve path stays cheap while the engine is attached.
func (e *replayEngine) replayFailure(id ids.CompID) error {
	if e.failures.Load() == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed[id]
}

// finalize publishes the completed recovery when the last context
// finishes: stats merged from the restore plan and the drain's
// accounting, the recovery.* histograms, and the EventRecoveryDone
// event. A clean run then detaches the engine from the process so the
// serve path returns to a bare nil check; a run with failed contexts
// stays attached, keeping the per-context errors addressable.
func (e *replayEngine) finalize() {
	p := e.p
	if p.crashed.Load() {
		e.close()
		return
	}
	clock := p.u.cfg.Clock
	e.mu.Lock()
	stats := e.plan.stats // finishOne adds what the walks and replays read
	stats.ContextsOnDemand = e.onDemand
	stats.ContextsBackground = e.background
	stats.CtxReplayMaxNanos = int64(e.replayMax)
	stats.CtxReplayTotalNanos = int64(e.replayTotal)
	failures := len(e.failed)
	e.mu.Unlock()
	stats.Pass2Duration = clock.Now().Sub(e.admitStart)
	stats.TotalDuration = clock.Now().Sub(e.plan.recStart)
	stats.TimeToFirstCallNanos = p.ttfcNanos.Load()
	stats.CallsReplayed = p.replayedCalls.Load()
	stats.CallsSuppressed = p.suppressedCalls.Load()
	p.obs.RecoveryPass2Micros.Observe(time.Since(e.admitWall).Microseconds())
	p.obs.RecoveryMicros.Observe(time.Since(e.plan.recWall).Microseconds())
	p.setLastRecovery(&stats)
	p.emitEvent(Event{
		Kind:       EventRecoveryDone,
		Restored:   len(e.plan.restored),
		Replayed:   stats.CallsReplayed,
		Suppressed: stats.CallsSuppressed,
		Recovery:   &stats,
		Detail: fmt.Sprintf("%d contexts restored (%d on demand, %d in background), %d calls replayed, %d sends suppressed",
			len(e.plan.restored), stats.ContextsOnDemand, stats.ContextsBackground,
			stats.CallsReplayed, stats.CallsSuppressed),
	})
	if failures == 0 {
		p.engine.CompareAndSwap(e, nil)
	}
	e.close()
}

// join blocks until the drain has replayed every context (or the
// process crashed mid-drain) and returns the first replay failure.
func (e *replayEngine) join() error {
	<-e.done
	e.workers.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// stop tears the engine down when the process crashes or closes
// mid-drain: unclaimed contexts get their latches opened (waiters
// proceed into checkAlive and unwind as unavailability), in-flight
// replays see stopCh, and joiners are released.
func (e *replayEngine) stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	pend := e.pending
	e.pending = nil
	e.mu.Unlock()
	close(e.stopCh)
	for _, ent := range pend {
		ent.cx.markReady()
	}
	e.close()
}

func (e *replayEngine) close() {
	e.closeOnce.Do(func() { close(e.done) })
}
