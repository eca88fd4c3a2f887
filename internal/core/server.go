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
	var call msg.Call
	if err := msg.DecodeCallInto(req, &call); err != nil {
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

	// The envelope is fresh bytes, never pooled (contrast Universe.send):
	// transports may deliver it asynchronously, callers retain response
	// buffers and a last-call entry keeps its results as a view of it.
	// msg's TestEncodeReplyBypassesPool and TestPooledReplyWouldCorrupt
	// pin that contract.
	var reply msg.Reply
	return p.serveCall(&call, &reply), nil
}

// fault answers call id with an infrastructure error: it fills reply
// and returns its envelope.
func fault(reply *msg.Reply, id ids.CallID, format string, args ...any) []byte {
	*reply = msg.Reply{ID: id, Fault: fmt.Sprintf(format, args...)}
	data, _ := msg.EncodeReplyView(reply)
	return data
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
		Proc:   p.name,
		Method: call.Method,
	})
}

// serveCall is the server-side message interceptor: duplicate
// elimination (condition 3), message-1/2 logging per the active
// discipline, single-threaded execution, last-call-table maintenance,
// and checkpoint policy. It fills reply, which the caller owns, and
// returns the reply's envelope.
func (p *Process) serveCall(call *msg.Call, reply *msg.Reply) []byte {
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
		return fault(reply, call.ID, "bad target %q: %v", call.Target, err)
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
			return fault(reply, call.ID, "no component %q in process %s", compName, p.name)
		}
	}

	// A context being recovered is a shell until it is back, so this gate
	// comes before anything reads its methods. While the replay engine is
	// attached an arrival does better than wait: it claims the context
	// and brings it back right here (first toucher pays; concurrent
	// arrivals wait on the same latch) — which is also how a resumed tail
	// call reaches a same-process context nobody has brought back yet.
	// Steady state — no engine attached, first call already noted —
	// costs two atomic loads.
	if e := p.engine.Load(); e != nil {
		e.demand(cx, call.Trace, call.Method)
		<-cx.ready
		if err := e.replayFailure(cx.parent.id); err != nil {
			return fault(reply, call.ID, "context %s unavailable: replay failed: %v", cx.uri, err)
		}
	} else {
		<-cx.ready
	}
	if cx.parent.disp == nil { // a shell opened by a crash mid-drain, or whose restore failed
		p.checkAlive()
		return fault(reply, call.ID, "context %s unavailable: not restored", cx.uri)
	}

	external := call.ID.IsZero()
	// Bind before anything is logged: a call that cannot run faults
	// leaving no record for a restart to trip over.
	bound, err := cx.parent.disp.Bind(call.Method, call.Args, call.NumArgs)
	if err != nil {
		return fault(reply, call.ID, "component %q: %v", compName, err)
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

	// Account the interception by logging discipline (the split the
	// paper's Tables 4-5 argue about).
	switch {
	case cx.parent.ctype == msg.Functional:
		p.obs.InterceptFunctional.Inc() // Algorithm 4
	case roTreatment:
		p.obs.InterceptReadOnly.Inc() // Algorithm 5 treatment
	case p.cfg.LogMode == LogBaseline:
		p.obs.InterceptAlgo1.Inc()
	case external:
		p.obs.InterceptAlgo3.Inc()
	default:
		p.obs.InterceptAlgo2.Inc()
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
				return fault(reply, call.ID, "stale call %v (last is %d)", call.ID, e.seq)
			}
			if call.ID.Seq == e.seq {
				if !p.replyFromEntry(e) {
					return fault(reply, call.ID, "duplicate call %v but reply is unrecoverable", call.ID)
				}
				*reply = e.reply
				attach(reply, call, cx.parent.ctype, roMethodAttr)
				data, _ := msg.EncodeReplyView(reply)
				return data
			}
		}
	}

	// Message 1 logging.
	if !roTreatment {
		p.inject(PointServerBeforeLogIncoming)
		cx.incoming = incomingRec{Ctx: cx.parent.id, Call: *call, Trace: call.Trace}
		lsn, err := p.appendRec(&cx.incoming, &cx.chainHead)
		if err != nil {
			return fault(reply, call.ID, "log incoming: %v", err)
		}
		cx.lastLSN = lsn
		if external || p.cfg.LogMode == LogBaseline {
			// Algorithm 1 forces every message; Algorithm 3 force-logs
			// external calls promptly so the failure window is small.
			p.forceTraced(p.obs.ForceAtIncoming, cx.lastLSN, call.Trace, call.Method)
		}
		p.inject(PointServerAfterLogIncoming)
	}
	p.traceSpan(call, trace.StageServerIntercept, srvStart)

	// Execute.
	cx.beginExecution()
	cx.curTrace = call.Trace
	defer func() { cx.curTrace = trace.Ref{} }()
	execStart := obs.Stopwatch()
	execTraceStart := p.tr.Now()
	out, appErr := bound.Call()
	results, numResults, err := bound.AppendResults(msg.GetBuf(), out) // until the envelope copies them
	p.obs.ServeExecs.Inc()
	p.obs.ServeExecMicros.Observe((obs.Stopwatch() - execStart) / 1e3)
	p.traceSpan(call, trace.StageExecute, execTraceStart)
	if err != nil {
		return fault(reply, call.ID, "%v", err)
	}
	defer msg.FreeBuf(results)
	replyStart := p.tr.Now()
	rep := msg.Reply{ID: call.ID, Results: results, NumResults: numResults, AppErr: appErr, Trace: call.Trace}
	p.inject(PointServerAfterExecute)

	// Message 2 logging, before the reply is sent.
	if !roTreatment {
		switch {
		case p.cfg.LogMode == LogBaseline:
			// Algorithm 1: log the full reply and force.
			rc := replyContentRec{Ctx: cx.parent.id, Reply: rep, Trace: call.Trace}
			lsn, err := p.appendRec(&rc, nil)
			if err != nil {
				return fault(reply, call.ID, "log reply: %v", err)
			}
			cx.lastLSN = lsn
			p.forceTraced(p.obs.ForceAtReply, cx.lastLSN, call.Trace, call.Method)
		case external:
			// Algorithm 3: a short record — only the fact that the
			// reply was (attempted to be) sent — then force.
			cx.replySent = replySentRec{Ctx: cx.parent.id, Trace: call.Trace}
			lsn, err := p.appendRec(&cx.replySent, nil)
			if err != nil {
				return fault(reply, call.ID, "log reply-sent: %v", err)
			}
			cx.lastLSN = lsn
			p.forceTraced(p.obs.ForceAtReply, cx.lastLSN, call.Trace, call.Method)
		default:
			// Algorithm 2: the send is not written (replay recreates
			// it) but it commits state — force all of this context's
			// previous records (other contexts' dirty tails are their
			// own commits' business).
			p.forceTraced(p.obs.ForceAtReply, cx.lastLSN, call.Trace, call.Method)
		}
	}

	attach(&rep, call, cx.parent.ctype, roMethodAttr)
	// The envelope is made once, here; rep reads its results in it now.
	data, kept := msg.EncodeReplyView(&rep)
	rep.Results = kept

	// Last call table (condition 3's memory). Kept for persistent
	// clients only; the reply body stays in memory and reaches the log
	// lazily when a context state save needs it (Section 4.2).
	if !external && !roTreatment {
		p.lastCalls.put(call.ID.Caller, call.ID.Seq, rep, cx.parent.id)
	}

	// Checkpoint policies (Section 4: state records are saved when the
	// context is quiescent — right here, after the call finished and
	// before the next is admitted).
	if !serverStateless {
		cx.callsSinceSave++
		if p.cfg.SaveStateEvery > 0 && cx.callsSinceSave >= p.cfg.SaveStateEvery {
			if err := cx.saveStateLocked(); err != nil {
				return fault(reply, call.ID, "save state: %v", err)
			}
		}
	}
	total := p.incomingCalls.Add(1)
	if p.cfg.CheckpointEvery > 0 && total%int64(p.cfg.CheckpointEvery) == 0 {
		if err := p.runCheckpoint(); err != nil {
			return fault(reply, call.ID, "checkpoint: %v", err)
		}
	}

	p.inject(PointServerBeforeSendReply)
	p.traceSpan(call, trace.StageReply, replyStart)
	*reply = rep
	return data
}

// attach sets a reply's attachment (Section 3.4), the server's type t
// and the method's read-only attribute ro, unless the client knows the
// server (Section 5.2.3) or cannot use it (an external caller): a
// duplicate is answered with the first's bytes, a reply record or not.
func attach(rep *msg.Reply, call *msg.Call, t msg.ComponentType, ro bool) {
	rep.HasAttachment, rep.ServerType, rep.MethodReadOnly = false, 0, false
	if !call.ID.IsZero() && !call.KnowsServer {
		rep.HasAttachment, rep.ServerType, rep.MethodReadOnly = true, t, ro
	}
}

// replyFromEntry makes sure a last-call entry holds its reply, reading
// it from its log record when it is not in memory ("actual reply
// messages are only read when they are required to reply to a
// duplicate call", Section 4.4), and reports whether it does.
func (p *Process) replyFromEntry(e *lastCallEntry) bool {
	if !e.reply.ID.IsZero() {
		return true
	}
	if e.replyLSN.IsNil() {
		return false
	}
	rec, err := p.log.Read(e.replyLSN)
	if err != nil || rec.Type != recReplyContent {
		return false
	}
	var rc replyContentRec
	if err := decodeRec(rec, &rc); err != nil {
		return false
	}
	e.reply = rc.Reply
	return true
}
