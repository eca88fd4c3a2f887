package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// This file is the replay engine: the one scheduler of Pass 2, for
// every recovery mode. After Pass 1 has registered every context as a
// shell with its restart LSN and chain head, every one keeps its ready
// latch shut until it has been brought back (bringBack: built, walked,
// replayed). One background worker claims the contexts in restart-LSN
// order; a call that touches an unclaimed context claims it and brings
// it back on its own goroutine (concurrent arrivals wait on the same
// latch), so a first touch never queues behind the worker's current
// replay. Eager mode joins the engine before the process opens, lazy
// mode returns after arming it; nothing else differs.
//
// A context runs its own tail call and readies itself, with no order
// imposed between contexts. That is safe because the serve path's
// demand hook works for replaying goroutines too: a tail that resumes
// live execution and calls another context of this process either
// claims and brings back that context right there, nested, or waits for
// the goroutine that already claimed it — and that goroutine is never
// waiting on us, because a cycle of contexts each blocked mid-call on
// the next would have been a deadlock before the crash as well.
//
// Correctness rests on what Pass 1 guarantees at admission time: the
// last-call table is fully seeded (duplicate elimination works, and
// TrimLog keeps every reply it names, before any context is back) and
// restart LSNs are not advanced until a context replays (a crash
// mid-drain loses nothing).

// replayEngine coordinates one recovery run's Pass 2. It lives in
// Process.engine from admission until the drain completes cleanly, so
// the serve path's only steady-state cost is an atomic nil check.
type replayEngine struct {
	p    *Process
	plan *restorePlan

	admitStart time.Time // universe clock, admission point

	mu          sync.Mutex
	stopped     bool
	pending     map[ids.CompID]*Context // unclaimed contexts
	remaining   int                     // claimed-but-unfinished + pending
	onDemand    int
	background  int
	replayMax   time.Duration
	replayTotal time.Duration
	failed      map[ids.CompID]error
	firstErr    error

	// backlogLo and backlogHi bound all pending chains together, lowest
	// restart LSN to highest head (lo > hi: none): what the worker asks
	// its reader to hold, so interleaved chains share one device read.
	backlogLo, backlogHi ids.LSN

	// failures guards the post-ready failure lookup on the serve path:
	// zero means no mutex needs taking.
	failures atomic.Int32

	done      chan struct{} // closed when the drain finishes or stops
	closeOnce sync.Once

	// worker tracks the background goroutine. join waits for it after
	// done closes; stop() must NOT — a crash raised from inside the
	// worker would then self-deadlock.
	worker sync.WaitGroup
}

// startEngine arms the engine over the plan's unready contexts and
// starts the background worker. From here on the serve path admits
// calls, bringing a context back on first touch.
func (p *Process) startEngine(plan *restorePlan, admitStart time.Time) *replayEngine {
	e := &replayEngine{
		p:          p,
		plan:       plan,
		admitStart: admitStart,
		pending:    make(map[ids.CompID]*Context),
		done:       make(chan struct{}),
		backlogLo:  ^ids.LSN(0),
	}
	for _, cx := range plan.restored {
		select {
		case <-cx.ready:
			continue // stateless: back since Pass 1, no backlog
		default:
		}
		e.pending[cx.parent.id] = cx
		if head, restart := ids.LSN(cx.chainHead.Load()), cx.restartLSN; head >= restart {
			e.backlogLo, e.backlogHi = min(e.backlogLo, restart), max(e.backlogHi, head)
		}
	}
	e.remaining = len(e.pending)
	idle := e.remaining == 0
	p.recovered = true
	// Publishing the engine opens it to touching calls: from here on
	// its counters belong to e.mu.
	p.engine.Store(e)
	if idle {
		e.finalize()
		return e
	}
	e.worker.Add(1)
	go e.work()
	return e
}

// demand is the admission hook of the serve path and of a Handle,
// called before the ready gate: an unclaimed context is brought back on
// this goroutine, for the call tref and method name, if any. Losing the
// claim race just means someone else is bringing it back; the caller
// falls through to the ready latch.
func (e *replayEngine) demand(cx *Context, tref trace.Ref, method string) {
	select {
	case <-cx.ready:
		return
	default:
	}
	if e.claim(cx) {
		_ = e.replayOne(cx, true, tref, method, e.p.log.NewReader())
	}
}

// recoverNow is RecoverContext's entry into a live run. A context
// still pending is brought back in place; one being brought back right
// now — the only other way a context is not ready — is waited for.
// handled=false means the context is back already and the caller
// should restore it afresh.
func (e *replayEngine) recoverNow(cx *Context) (handled bool, err error) {
	if e.claim(cx) {
		return true, e.replayOne(cx, true, trace.Ref{}, "", e.p.log.NewReader())
	}
	select {
	case <-cx.ready:
		return false, nil
	default:
	}
	<-cx.ready
	return true, e.replayFailure(cx.parent.id)
}

// claim removes cx from the pending set; the caller that gets true owns
// bringing it back (and its markReady).
func (e *replayEngine) claim(cx *Context) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.pending[cx.parent.id]; !ok || e.stopped {
		return false
	}
	delete(e.pending, cx.parent.id)
	return true
}

// work is the background worker: it goes through the restored contexts
// in restart-LSN order and brings back each one no call has claimed
// first. Its log reader serves every chain it walks: out of the whole
// backlog, read once, when it can hold that, else by the block.
func (e *replayEngine) work() {
	defer e.worker.Done()
	rd := e.p.log.NewReader()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				return // crashed mid-drain; stop() releases the waiters
			}
			panic(r)
		}
	}()
	for _, cx := range e.plan.restored {
		if e.p.crashed.Load() {
			return
		}
		if e.claim(cx) {
			_ = e.replayOne(cx, false, trace.Ref{}, "", rd)
		}
	}
}

// replayOne brings back a claimed context through the caller's rd.
// It records the per-context latency, drops a demand-replay span into
// the flight recorder (under the triggering call's trace, else the
// recovery run's), and marks the context ready whatever happened, so
// waiters unblock and find the failure, or the crash that unwound
// through here.
func (e *replayEngine) replayOne(cx *Context, onDemand bool, tref trace.Ref, method string, rd *wal.Reader) error {
	p := e.p
	clock := p.u.cfg.Clock
	start := clock.Now()
	tstart := p.tr.Now()
	defer cx.markReady()
	before := rd.Reads()
	if !onDemand && before == 0 {
		rd.Hold(e.backlogLo, e.backlogHi) // the worker's first context: the whole backlog, once
	}
	records, err := p.bringBack(cx, rd)
	if err != nil && p.crashed.Load() {
		err = nil // the log closed under us: the crash's doing, not a replay failure
	}
	if p.tr != nil {
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
				LSN:    uint64(cx.restart()),
				Proc:   p.name,
				Method: method,
			})
		}
	}
	e.finishOne(cx, onDemand, int64(records), rd.Reads()-before, clock.Now().Sub(start), err)
	return err
}

// finishOne folds one context brought back into the run's accounting —
// the records its walk decoded and the device reads behind them — and
// triggers finalization when it was the last.
func (e *replayEngine) finishOne(cx *Context, onDemand bool, records, reads int64, d time.Duration, err error) {
	p := e.p
	e.mu.Lock()
	e.remaining--
	last := e.remaining == 0
	e.plan.stats.RecordsScanned += records
	e.plan.stats.LogReadsWalk += reads
	if onDemand {
		e.onDemand++
	} else {
		e.background++
	}
	e.replayTotal += d
	e.replayMax = max(e.replayMax, d)
	if err != nil {
		if e.failed == nil {
			e.failed = make(map[ids.CompID]error)
		}
		e.failed[cx.parent.id] = err
		if e.firstErr == nil {
			e.firstErr = err
		}
		e.failures.Add(1)
	}
	e.mu.Unlock()
	if onDemand {
		p.obs.RecoveryLazyOnDemand.Inc()
	} else {
		p.obs.RecoveryLazyBackground.Inc()
	}
	p.obs.RecoveryLazyCtxReplayMicros.Observe(d.Microseconds())
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
// accounting, and the recovery.* histograms. A clean run then detaches
// the engine from the process so the serve path returns to a bare nil
// check; a run with failed contexts stays attached, keeping the
// per-context errors addressable.
func (e *replayEngine) finalize() {
	p := e.p
	if p.crashed.Load() {
		e.close()
		return
	}
	clock := p.u.cfg.Clock
	e.mu.Lock()
	stats := e.plan.stats // finishOne adds what the walks read
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
	p.obs.RecoveryPass2Micros.Observe(stats.Pass2Duration.Microseconds())
	p.obs.RecoveryMicros.Observe(stats.TotalDuration.Microseconds())
	p.setLastRecovery(&stats)
	if failures == 0 {
		p.engine.CompareAndSwap(e, nil)
	}
	e.close()
}

// join blocks until the drain has replayed every context (or the
// process crashed mid-drain) and returns the first replay failure.
func (e *replayEngine) join() error {
	<-e.done
	e.worker.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// stop tears the engine down when the process crashes or closes
// mid-drain: unclaimed contexts get their latches opened, shells still
// (waiters proceed into checkAlive and unwind as unavailability),
// nothing more can be claimed, and joiners are released.
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
	for _, cx := range pend {
		cx.markReady()
	}
	e.close()
}

func (e *replayEngine) close() {
	e.closeOnce.Do(func() { close(e.done) })
}
