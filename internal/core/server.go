package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/transport"
)

// handleRequest is the process's transport handler: it unmarshals a
// call, routes it to the target context, and runs the server-side
// interceptor. Infrastructure problems travel back as Reply.Fault (the
// component is alive — no retry); a crash mid-call surfaces as a
// transport error so the client's condition-4 loop redrives it.
func (p *Process) handleRequest(req []byte) (resp []byte, err error) {
	if p.crashed.Load() {
		return nil, fmt.Errorf("%w: %s (crashed)", transport.ErrUnavailable, p.addr)
	}
	call, err := msg.DecodeCall(req)
	if err != nil {
		return nil, err
	}

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				resp, err = nil, fmt.Errorf("%w: %s (crashed mid-call)", transport.ErrUnavailable, p.addr)
				return
			}
			panic(r)
		}
	}()

	reply := p.serveCall(call)
	// EncodeReply deliberately allocates fresh bytes rather than drawing
	// on the scratch pool (contrast Universe.send, which frees its
	// encoded call once the retry loop is done): the encoded reply
	// outlives this handler — transports may deliver it asynchronously
	// and callers retain response buffers — so no site here could prove
	// release. msg's TestEncodeReplyBypassesPool and
	// TestPooledReplyWouldCorrupt pin that contract.
	return msg.EncodeReply(reply)
}

func fault(id ids.CallID, format string, args ...any) *msg.Reply {
	return &msg.Reply{ID: id, Fault: fmt.Sprintf(format, args...)}
}

// traceSpan records one leg of call's trace ending now: a fresh span
// under the call's span, tagged with this process and the method.
// Free when tracing is off or the call is untraced.
func (p *Process) traceSpan(call *msg.Call, st trace.Stage, start int64) {
	if p.tr == nil || call.Trace.IsZero() {
		return
	}
	p.tr.Record(trace.SpanData{
		Ref:    trace.Ref{Trace: call.Trace.Trace, Span: p.tr.NewSpan()},
		Parent: call.Trace.Span,
		Stage:  st,
		Start:  start,
		End:    p.tr.Now(),
		Proc:   &p.name,
		Method: &call.Method,
	})
}

// serveCall is the server-side message interceptor: duplicate
// elimination (condition 3), message-1/2 logging per the active
// discipline, single-threaded execution, last-call-table maintenance,
// and checkpoint policy.
func (p *Process) serveCall(call *msg.Call) *msg.Reply {
	srvStart := p.tr.Now()
	// An arrival with no causal identity — an untraced peer, or an
	// external client whose side has no recorder — gets a trace minted
	// here, so every logged interaction at a tracing process is
	// timeline-complete from its first record.
	if p.tr != nil && call.Trace.IsZero() {
		call.Trace = p.tr.NewTrace()
	}
	_, _, compName, err := call.Target.Split()
	if err != nil {
		return fault(call.ID, "bad target %q: %v", call.Target, err)
	}
	p.mu.Lock()
	cx := p.byName[compName]
	p.mu.Unlock()
	if cx == nil {
		// The component may still be on its way back: recovery
		// restores contexts after the process starts listening. Wait
		// for startup to finish before deciding the component does
		// not exist.
		<-p.recoveryDone
		p.checkAlive()
		p.mu.Lock()
		cx = p.byName[compName]
		p.mu.Unlock()
		if cx == nil {
			return fault(call.ID, "no component %q in process %s", compName, p.name)
		}
	}

	external := call.ID.IsZero()
	if _, ok := cx.parent.disp.Method(call.Method); !ok {
		return fault(call.ID, "component %q has no method %q", compName, call.Method)
	}

	// Classify the interaction (Sections 3.2-3.3). Stateless servers
	// (functional, read-only) log nothing and keep no last-call
	// entries. Read-only methods on persistent components and calls
	// from read-only clients are treated the same way when the
	// specialized-types switch is on.
	roMethodAttr := cx.parent.roMethods[call.Method]
	// Hosted external-type components (plain .NET objects in the
	// paper's Table 4 "native" rows) get interception but no logging
	// and no guarantees, like stateless components.
	serverStateless := cx.parent.ctype.Stateless() || cx.parent.ctype == msg.External
	roTreatment := serverStateless ||
		(p.cfg.SpecializedTypes && (roMethodAttr || call.CallerType == msg.ReadOnly))

	// Adaptive treatment snapshot: one per execution, taken before any
	// logging decision, so an execution never straddles a discipline
	// flip. Statically stateless or read-only-treated calls already log
	// nothing — there is nothing left to promote.
	var ad adaptiveServe
	if p.adaptive != nil && !serverStateless && !roTreatment {
		ad = p.adaptive.serveState(cx.parent.id, call.Method)
	}

	// Account the interception by logging discipline (the split the
	// paper's Tables 4-5 argue about).
	switch {
	case cx.parent.ctype == msg.Functional:
		p.obs.InterceptFunctional.Inc() // Algorithm 4
	case roTreatment || ad.readOnly:
		p.obs.InterceptReadOnly.Inc() // Algorithm 5 treatment
	case p.cfg.LogMode == LogBaseline && !ad.algo2:
		p.obs.InterceptAlgo1.Inc()
	case external:
		p.obs.InterceptAlgo3.Inc()
	default:
		p.obs.InterceptAlgo2.Inc()
	}

	// A context being recovered holds arrivals until replay completes.
	// While the replay engine is attached an arrival does better than
	// wait: it claims the context and replays its chain right here
	// (first toucher pays; concurrent arrivals wait on the same latch)
	// — which is also how a resumed tail call reaches a same-process
	// context that nobody has replayed yet. Steady state — no engine
	// attached, first call already noted — costs two atomic loads.
	if e := p.engine.Load(); e != nil {
		e.demand(cx, call)
		<-cx.ready
		if err := e.replayFailure(cx.parent.id); err != nil {
			return fault(call.ID, "context %s unavailable: replay failed: %v", cx.uri, err)
		}
	} else {
		<-cx.ready
	}
	p.noteFirstCall()

	// Single-threaded context: one incoming call at a time
	// (Section 2.2). Everything — duplicate detection, logging,
	// execution, reply bookkeeping — happens in execution order.
	cx.mu.Lock()
	defer cx.mu.Unlock()
	p.checkAlive()

	// Condition 3: a persistent client's repeated call is answered
	// with the stored reply, not re-executed. Read-only interactions
	// skip the table ("it is not necessary to detect duplicate calls
	// to or from a read-only component").
	if !external && !roTreatment {
		if e := p.lastCalls.get(call.ID.Caller); e != nil {
			if call.ID.Seq < e.seq {
				return fault(call.ID, "stale call %v (last is %d)", call.ID, e.seq)
			}
			if call.ID.Seq == e.seq {
				if rep := p.replyFromEntry(e); rep != nil {
					return rep
				}
				return fault(call.ID, "duplicate call %v but reply is unrecoverable", call.ID)
			}
		}
	}

	// Read-only guard: hash the pre-execution state while the method is
	// a candidate (observing mutation behavior) or promoted (the safety
	// net). After duplicate elimination — a served-from-table duplicate
	// never executes, so it needs no guard.
	if ad.guard {
		if h, err := cx.stateHash(); err != nil {
			ad.hashErr = true
		} else {
			ad.preHash = h
		}
	}

	// Message 1 logging. A read-only-promoted method logs nothing
	// (Algorithm 5); the runtime guard below backstops the bet.
	if !roTreatment && !ad.readOnly {
		p.inject(PointServerBeforeLogIncoming)
		cx.incoming = incomingRec{Ctx: cx.parent.id, Call: *call, Trace: call.Trace}
		lsn, err := p.appendRec(recIncoming, cx.parent.id, &cx.incoming, &cx.chainHead)
		if err != nil {
			return fault(call.ID, "log incoming: %v", err)
		}
		cx.lastLSN = lsn
		if external || (p.cfg.LogMode == LogBaseline && !ad.algo2) {
			// Algorithm 1 forces every message; Algorithm 3 force-logs
			// external calls promptly so the failure window is small.
			if err := p.forceTraced(p.obs.ForceAtIncoming, cx.lastLSN, call.Trace, &call.Method); err != nil {
				return fault(call.ID, "force incoming: %v", err)
			}
		} else if ad.algo2 && p.cfg.LogMode == LogBaseline {
			// Promoted to Algorithm 2: message 1 stays unforced.
			p.obs.AdaptiveElideAlgo2.Inc()
		}
		p.inject(PointServerAfterLogIncoming)
	} else if ad.readOnly {
		p.obs.AdaptiveElideReadOnly.Inc()
	}
	p.traceSpan(call, trace.StageServerIntercept, srvStart)

	// Execute.
	cx.beginExecution()
	cx.curTrace = call.Trace
	if p.adaptive != nil {
		cx.curMethod = call.Method
	}
	defer func() { cx.curTrace = trace.Ref{}; cx.curMethod = "" }()
	execStart := obs.Stopwatch()
	execTraceStart := p.tr.Now()
	results, numResults, appErr, err := cx.parent.disp.InvokeEncoded(call.Method, call.Args, call.NumArgs)
	p.obs.ServeExecs.Inc()
	p.obs.ServeExecMicros.Observe((obs.Stopwatch() - execStart) / 1e3)
	p.traceSpan(call, trace.StageExecute, execTraceStart)
	if err != nil {
		return fault(call.ID, "%v", err)
	}
	replyStart := p.tr.Now()
	reply := &msg.Reply{ID: call.ID, Results: results, NumResults: numResults, AppErr: appErr, Trace: call.Trace}
	p.inject(PointServerAfterExecute)

	// Message 2 logging, before the reply is sent. Nothing for a
	// read-only-promoted method: no message-1 record exists, so there
	// is nothing to commit.
	if !roTreatment && !ad.readOnly {
		switch {
		case p.cfg.LogMode == LogBaseline && !ad.algo2:
			// Algorithm 1: log the full reply and force.
			lsn, err := p.appendRec(recReplyContent, cx.parent.id, &replyContentRec{Ctx: cx.parent.id, CallID: call.ID, Reply: *reply, Trace: call.Trace}, nil)
			if err != nil {
				return fault(call.ID, "log reply: %v", err)
			}
			cx.lastLSN = lsn
			if err := p.forceTraced(p.obs.ForceAtReply, cx.lastLSN, call.Trace, &call.Method); err != nil {
				return fault(call.ID, "force reply: %v", err)
			}
		case external:
			// Algorithm 3: a short record — only the fact that the
			// reply was (attempted to be) sent — then force.
			cx.replySent = replySentRec{Ctx: cx.parent.id, CallID: call.ID, Trace: call.Trace}
			lsn, err := p.appendRec(recReplySent, cx.parent.id, &cx.replySent, nil)
			if err != nil {
				return fault(call.ID, "log reply-sent: %v", err)
			}
			cx.lastLSN = lsn
			if err := p.forceTraced(p.obs.ForceAtReply, cx.lastLSN, call.Trace, &call.Method); err != nil {
				return fault(call.ID, "force reply-sent: %v", err)
			}
		default:
			// Algorithm 2: the send is not written (replay recreates
			// it) but it commits state — force all of this context's
			// previous records (other contexts' dirty tails are their
			// own commits' business).
			if err := p.forceTraced(p.obs.ForceAtReply, cx.lastLSN, call.Trace, &call.Method); err != nil {
				return fault(call.ID, "force at reply: %v", err)
			}
		}
	}

	// Last call table (condition 3's memory). Kept for persistent
	// clients only; the reply body stays in memory and reaches the log
	// lazily when a context state save needs it (Section 4.2).
	if !external && !roTreatment {
		p.lastCalls.put(call.ID.Caller, call.ID.Seq, reply, cx.parent.id)
	}

	// Adaptive epilogue: resolve the read-only guard (a violation
	// demotes the method and captures the unlogged execution's damage
	// as a forced state record before the reply externalizes), then
	// feed the observation to the controller and apply any epoch
	// decisions it returns.
	if ad.active {
		if err := p.adaptiveAfterExec(cx, call, ad); err != nil {
			return fault(call.ID, "adaptive demote %q: %v", call.Method, err)
		}
	}

	// Checkpoint policies (Section 4: state records are saved when the
	// context is quiescent — right here, after the call finished and
	// before the next is admitted).
	if !serverStateless {
		cx.callsSinceSave++
		if p.cfg.SaveStateEvery > 0 && cx.callsSinceSave >= p.cfg.SaveStateEvery {
			if err := cx.saveStateLocked(); err != nil {
				return fault(call.ID, "save state: %v", err)
			}
		}
	}
	total := p.incomingCalls.Add(1)
	if p.cfg.CheckpointEvery > 0 && total%int64(p.cfg.CheckpointEvery) == 0 {
		if err := p.runCheckpoint(); err != nil {
			return fault(call.ID, "checkpoint: %v", err)
		}
	}

	p.inject(PointServerBeforeSendReply)

	// Reply attachment (Section 3.4), omitted when the client already
	// knows us (Section 5.2.3) or cannot use it (external caller).
	if !external && !call.KnowsServer {
		reply.HasAttachment = true
		reply.ServerType = cx.parent.ctype
		// An adaptive read-only promotion travels in the attachment like
		// a declared read-only method: clients may elide their message-3
		// force for future calls (Algorithm 5's client side). Safe even
		// if the method is later demoted — the attachment only relaxes
		// the client while the server still guards itself.
		reply.MethodReadOnly = roMethodAttr || ad.readOnly
	}
	p.traceSpan(call, trace.StageReply, replyStart)
	return reply
}

// replyFromEntry materializes a last-call reply from memory or from
// its log record ("actual reply messages are only read when they are
// required to reply to a duplicate call", Section 4.4).
func (p *Process) replyFromEntry(e *lastCallEntry) *msg.Reply {
	if e.reply != nil {
		return e.reply
	}
	if e.replyLSN.IsNil() {
		return nil
	}
	rec, err := p.log.Read(e.replyLSN)
	if err != nil || rec.Type != recReplyContent {
		return nil
	}
	var rc replyContentRec
	if err := decodeRec(rec.Payload, &rc); err != nil {
		return nil
	}
	e.reply = &rc.Reply
	return e.reply
}
