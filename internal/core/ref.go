package core

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rpc"
)

// Ref is a proxy to a component in another context — the client half of
// the message interceptor pair. A Ref owned by a context attaches the
// context's identity (condition 2), applies the client-side logging
// discipline for messages 3 and 4, repeats failed calls with the same
// call ID (condition 4), and learns server component types from reply
// attachments (Section 3.4). An external Ref (from Universe.ExternalRef)
// attaches no identity and logs nothing.
type Ref struct {
	u        *Universe
	p        *Process // nil for external refs
	owner    *Context // nil for external refs
	target   ids.URI
	external bool

	// noRetry makes an external ref fail immediately on server
	// unavailability instead of redriving (external components have no
	// retry obligation; persistent callers always retry).
	noRetry bool
}

// NewRef returns an unbound proxy for the target component. Assign it
// to an exported *Ref field of a component before Create: the runtime
// binds it to the component's context, outgoing calls then carry the
// context's identity, and checkpoints save it as the target URI. An
// unbound Ref cannot be called.
func NewRef(target ids.URI) *Ref {
	return &Ref{target: target}
}

// bindRefs walks the exported top-level fields of a component object
// and binds any non-nil *Ref to the hosting context (the field-level
// analogue of obtaining a remoting proxy inside a .NET context).
func bindRefs(cx *Context, obj any) {
	v := reflect.ValueOf(obj).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() || t.Field(i).Type != refPtrType {
			continue
		}
		if f := v.Field(i); !f.IsNil() {
			r := f.Interface().(*Ref)
			r.u, r.p, r.owner = cx.p.u, cx.p, cx
		}
	}
}

var refPtrType = reflect.TypeOf((*Ref)(nil))

// PhoenixURI implements serial.RemoteRef: a checkpointed component
// field holding a Ref is saved as the target URI and re-resolved on
// restore.
func (r *Ref) PhoenixURI() ids.URI { return r.target }

// Target returns the URI the proxy calls.
func (r *Ref) Target() ids.URI { return r.target }

// WithoutRetry returns a copy of an external ref that surfaces server
// unavailability immediately.
func (r *Ref) WithoutRetry() *Ref {
	cp := *r
	cp.noRetry = true
	return &cp
}

// ErrUnavailable reports that the callee stayed unreachable for the
// whole retry window.
var ErrUnavailable = errors.New("core: component unavailable")

// AppError is an error returned by the remote method itself (the
// component is alive; retrying would not help).
type AppError struct{ Msg string }

func (e *AppError) Error() string { return e.Msg }

// Fault is an infrastructure error from the server runtime (no such
// component, no such method, argument mismatch) — the paper's "invalid
// argument exception indicates an error, but the remote component is
// still alive". Not retried.
type Fault struct{ Msg string }

func (e *Fault) Error() string { return "core: fault: " + e.Msg }

// Call invokes method on the target component and returns its results.
// A trailing error declared by the method surfaces as *AppError.
func (r *Ref) Call(method string, args ...any) ([]any, error) {
	if r.u == nil {
		return nil, fmt.Errorf("core: ref to %s is not bound to a context (assign it to a component field before Create, or use Ctx.NewRef / Universe.ExternalRef)", r.target)
	}
	argBytes, n, err := rpc.EncodeArgs(args...)
	if err != nil {
		return nil, err
	}
	call := &msg.Call{Target: r.target, Method: method, Args: argBytes, NumArgs: n}

	var reply *msg.Reply
	if r.owner == nil {
		reply, err = r.externalCall(call)
	} else {
		reply, err = r.owner.outgoingCall(call)
	}
	if err != nil {
		return nil, err
	}
	if reply.AppErr != "" {
		return nil, &AppError{Msg: reply.AppErr}
	}
	results, err := rpc.DecodeResults(reply.Results)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// externalCall sends with no identity and no logging. External clients
// may still redrive unavailable servers (a user hitting reload); the
// runtime gives them the same retry loop but none of the guarantees —
// without a call ID the server cannot eliminate duplicates.
func (r *Ref) externalCall(call *msg.Call) (*msg.Reply, error) {
	call.CallerType = msg.External
	cfg := Config{} // defaults
	tr := r.u.cfg.Trace
	if r.p != nil {
		cfg = r.p.cfg
		if r.p.tr != nil {
			tr = r.p.tr
		}
	}
	// Every external interaction roots a fresh trace (nil recorder →
	// zero Ref, i.e. untraced): the TraceID rides the 0xC6 envelope to
	// the server and from there into every log record the call produces.
	call.Trace = tr.NewTrace()
	retries := cfg.retryLimit()
	if r.noRetry {
		retries = 1
	}
	return r.u.send(call, retries, cfg.retryInterval(), nil, "external", tr)
}

// outgoingCall is the client interceptor for calls from inside a
// context: messages 3 and 4 of Figure 1.
func (cx *Context) outgoingCall(call *msg.Call) (*msg.Reply, error) {
	p := cx.p
	p.checkAlive()

	// Condition 2: attach the globally unique, deterministically
	// derived call ID. The sequence advances identically during replay,
	// so a replayed call re-derives the same ID.
	cx.lastOutSeq++
	seq := cx.lastOutSeq
	call.ID = ids.CallID{Caller: cx.addr(), Seq: seq}
	call.CallerType = cx.parent.ctype
	call.CallerURI = cx.uri

	// Causal tracing: the outgoing call is a child leg of the incoming
	// call this context is executing (or, during replay, of the original
	// call restored into curTrace) — its span ID is minted here and
	// becomes the parent of the server-side and transport spans.
	var outStart int64
	if p.tr != nil && !cx.curTrace.IsZero() {
		outStart = p.tr.Now()
		call.Trace = trace.Ref{Trace: cx.curTrace.Trace, Span: p.tr.NewSpan()}
	}

	// What do we know about the server (Section 3.4)? Unknown servers
	// get the most conservative treatment: persistent.
	serverType, roMethod, known := p.remoteTypes.lookup(call.Target, call.Method)
	call.KnowsServer = known
	// The adaptive controller honors learned read-only attachments even
	// when the static specialized-types switch is off: an adaptive
	// read-only promotion travels as MethodReadOnly and earns the
	// Algorithm 5 client treatment here.
	roCall := (p.cfg.SpecializedTypes || p.adaptive != nil) && (serverType == msg.ReadOnly || roMethod)
	call.ReadOnly = roCall

	// Replay: suppress the outgoing call if its reply is on the log
	// ("An outgoing call is suppressed by the message interceptor if a
	// reply to the call is found in the log", Section 2.5). A missing
	// reply means the log ends here: normal execution resumes and the
	// call really goes out — with the same ID, so a server that did
	// see it before answers from its last call table.
	if cx.recovering {
		if rep, ok := cx.replayReplies[seq]; ok {
			p.suppressedCalls.Add(1)
			p.obs.SuppressedSends.Inc()
			return rep, nil
		}
	}

	// Client-side logging for message 3 (the send "commits" component
	// state to the rest of the system, Section 3.1.1). A stateless
	// caller (functional or read-only component) never logs: it has no
	// state to recover (Algorithms 4 and 5 "at a functional/read-only
	// component: do nothing").
	stateless := cx.parent.ctype.Stateless()

	// Adaptive client treatment of the *executing* method: when it is
	// Algorithm-2 promoted, its outgoing calls take the optimized
	// message-3/4 path; its per-method multi-call flag composes with
	// the static switch. Observation rides the same map the multi-call
	// elision uses, but marks presence with false so the static elision
	// branch (which checks and stores true) decides exactly as it would
	// have without the observer.
	var aopt, amc bool
	if p.adaptive != nil && !stateless && cx.parent.ctype != msg.External {
		aopt, amc = p.adaptive.clientState(cx.parent.id, cx.curMethod)
		if cx.multiCallSeen != nil {
			cx.execOut++
			if _, seen := cx.multiCallSeen[call.Target]; seen {
				cx.execRepeats++
			} else {
				cx.multiCallSeen[call.Target] = false
			}
		}
	}

	switch {
	case cx.parent.ctype == msg.External || stateless:
		// Algorithms 4/5 at the stateless component: do nothing.
	case p.cfg.LogMode == LogBaseline && !aopt:
		lsn, err := p.appendRec(recOutgoing, cx.parent.id, &outgoingRec{Ctx: cx.parent.id, Call: *call, Trace: call.Trace}, nil)
		if err != nil {
			return nil, err
		}
		cx.lastLSN = lsn
		p.inject(PointClientBeforeForceSend)
		if err := p.forceTraced(p.obs.ForceAtSend, cx.lastLSN, call.Trace, &call.Method); err != nil {
			return nil, err
		}
	default: // optimized (statically, or by Algorithm-2 promotion)
		switch {
		case p.cfg.SpecializedTypes && serverType == msg.Functional:
			// Algorithm 4: calling a functional server needs no force.
			p.obs.ElideFunctional.Inc()
		case roCall:
			// Algorithm 5: "we do not force the log when calling a
			// read-only component".
			p.obs.ElideReadOnly.Inc()
			if !p.cfg.SpecializedTypes {
				p.obs.AdaptiveElideReadOnly.Inc()
			}
		case (p.cfg.MultiCall || amc) && cx.multiCallSeen != nil && !cx.multiCallSeen[call.Target]:
			// Section 3.5: first call to this server during this
			// method execution — its reply nondeterminism is captured
			// in the server's last call table; skip the force.
			cx.multiCallSeen[call.Target] = true
			p.obs.ElideMultiCall.Inc()
			if !p.cfg.MultiCall {
				p.obs.AdaptiveElideMulti.Inc()
			}
		default:
			// The send message itself is not written (replay recreates
			// it) but all of this context's previous records must be
			// stable.
			p.inject(PointClientBeforeForceSend)
			if err := p.forceTraced(p.obs.ForceAtSend, cx.lastLSN, call.Trace, &call.Method); err != nil {
				return nil, err
			}
		}
	}

	p.inject(PointClientAfterForceSend)
	if p.tr != nil && !call.Trace.IsZero() {
		// The minted span IS the client-intercept leg; downstream spans
		// (transport, server) hang off it.
		p.tr.Record(trace.SpanData{
			Ref:    call.Trace,
			Parent: cx.curTrace.Span,
			Stage:  trace.StageClientIntercept,
			Start:  outStart,
			End:    p.tr.Now(),
			Proc:   &p.name,
			Method: &call.Method,
		})
	}

	// Condition 4: repeat the call until some response arrives.
	reply, err := p.u.send(call, p.cfg.retryLimit(), p.cfg.retryInterval(),
		p.cfg.OnEvent, p.name, p.tr)
	if err != nil {
		return nil, err
	}
	resumeStart := p.tr.Now()

	// Learn the server's type from the reply attachment.
	if reply.HasAttachment {
		p.remoteTypes.learn(call.Target, call.Method, reply.ServerType, reply.MethodReadOnly)
		serverType = reply.ServerType
		roMethod = reply.MethodReadOnly
		roCall = (p.cfg.SpecializedTypes || p.adaptive != nil) && (serverType == msg.ReadOnly || roMethod)
	}

	// Client-side logging for message 4.
	switch {
	case cx.parent.ctype == msg.External || stateless:
		// Nothing at stateless callers.
	default:
		// A reply to a live send during replay (cx.recovering) is the
		// current end of history for this context: it is logged like
		// any other, so a second failure replays it too.
		if p.cfg.LogMode == LogBaseline && !aopt {
			cx.outgoingReply = outgoingReplyRec{Ctx: cx.parent.id, Seq: seq, Reply: *reply, Trace: call.Trace}
			lsn, err := p.appendRec(recOutgoingReply, cx.parent.id, &cx.outgoingReply, &cx.chainHead)
			if err != nil {
				return nil, err
			}
			cx.lastLSN = lsn
			p.inject(PointClientBeforeForceReply)
			if err := p.forceTraced(p.obs.ForceAtOutgoingReply, cx.lastLSN, call.Trace, &call.Method); err != nil {
				return nil, err
			}
		} else if p.cfg.SpecializedTypes && serverType == msg.Functional {
			// Algorithm 4: "Do nothing" — a functional reply is
			// recomputable by re-invoking the pure function.
		} else {
			// Optimized: log message 4 without forcing. Read-only
			// replies are unrepeatable and must be logged too
			// (Algorithm 5: "Log message 4").
			cx.outgoingReply = outgoingReplyRec{Ctx: cx.parent.id, Seq: seq, Reply: *reply, Trace: call.Trace}
			lsn, err := p.appendRec(recOutgoingReply, cx.parent.id, &cx.outgoingReply, &cx.chainHead)
			if err != nil {
				return nil, err
			}
			cx.lastLSN = lsn
			if aopt && p.cfg.LogMode == LogBaseline {
				// Algorithm-2 promotion: the baseline's message-4 force
				// is elided (the reply record rides the next commit).
				p.obs.AdaptiveElideAlgo2.Inc()
			}
		}
	}
	p.inject(PointClientAfterReply)
	p.traceSpan(call, trace.StageClientResume, resumeStart)
	return reply, nil
}

// send resolves the target and drives the transport with retries.
// onEvent (optional) observes each redrive; tr (optional) records the
// round trip as a StageTransport span of the call's trace — including
// retries, which are part of what the caller waited for.
func (u *Universe) send(call *msg.Call, retries int, interval time.Duration,
	onEvent func(Event), procName string, tr *trace.Recorder) (*msg.Reply, error) {
	addr, err := u.addrForURI(call.Target)
	if err != nil {
		return nil, err
	}
	data, err := msg.EncodeCall(call)
	if err != nil {
		return nil, err
	}
	// The encoded call is pooled: every transport path hands the bytes
	// over synchronously (handlers must not retain request buffers), so
	// the buffer is free once the retry loop is done with it.
	defer msg.FreeBuf(data)
	u.rpcm.RPCCalls.Inc()
	start := obs.Stopwatch()
	tstart := tr.Now()
	defer func() { u.rpcm.RPCCallMicros.Observe((obs.Stopwatch() - start) / 1e3) }()
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			u.rpcm.RPCRetries.Inc()
			if onEvent != nil {
				onEvent(Event{Kind: EventRetry, Process: procName, Context: call.Target,
					Method: call.Method, Detail: fmt.Sprintf("attempt %d", attempt+1)})
			}
			u.cfg.Clock.Sleep(interval)
		}
		respData, err := u.cfg.Net.Send(addr, data)
		if err != nil {
			// A failed send or a failure exception from the server:
			// wait a while and retry with the same method call ID
			// (Section 2.5).
			lastErr = err
			continue
		}
		reply, err := msg.DecodeReply(respData)
		if err != nil {
			return nil, err
		}
		if reply.Fault != "" {
			return nil, &Fault{Msg: reply.Fault}
		}
		if tr != nil && !call.Trace.IsZero() {
			tr.Record(trace.SpanData{
				Ref:    trace.Ref{Trace: call.Trace.Trace, Span: tr.NewSpan()},
				Parent: call.Trace.Span,
				Stage:  trace.StageTransport,
				Start:  tstart,
				End:    tr.Now(),
				Method: &call.Method,
			})
		}
		return reply, nil
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrUnavailable, call.Target, retries, lastErr)
}
