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
	// The argument list is encoded once, into pooled scratch that lives
	// until the call returns: the envelope and a baseline outgoing record
	// copy it, and a retry re-sends the envelope, so nothing keeps
	// call.Args past the send.
	argBuf, err := msg.AppendAnySlice(msg.GetBuf(), args)
	if err != nil {
		return nil, err
	}
	defer msg.FreeBuf(argBuf)
	call := msg.Call{Target: r.target, Method: method, Args: argBuf, NumArgs: len(args)}

	var reply msg.Reply
	if r.owner == nil {
		err = r.externalCall(&call, &reply)
	} else {
		err = r.owner.outgoingCall(&call, &reply)
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
	if len(results) != reply.NumResults {
		return nil, fmt.Errorf("core: %s.%s: reply carries %d results, its header says %d",
			r.target, method, len(results), reply.NumResults)
	}
	return results, nil
}

// externalCall sends with no identity and no logging. External clients
// may still redrive unavailable servers (a user hitting reload); the
// runtime gives them the same retry loop but none of the guarantees —
// without a call ID the server cannot eliminate duplicates.
func (r *Ref) externalCall(call *msg.Call, reply *msg.Reply) error {
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
	return r.u.send(call, reply, retries, cfg.retryInterval(), tr)
}

// outgoingCall is the client interceptor for calls from inside a
// context: messages 3 and 4 of Figure 1. The reply lands in reply.
func (cx *Context) outgoingCall(call *msg.Call, reply *msg.Reply) error {
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
	roCall := p.cfg.SpecializedTypes && (serverType == msg.ReadOnly || roMethod)
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
			*reply = *rep
			return nil
		}
	}

	// Client-side logging for message 3 (the send "commits" component
	// state to the rest of the system, Section 3.1.1). A stateless
	// caller (functional or read-only component) never logs: it has no
	// state to recover (Algorithms 4 and 5 "at a functional/read-only
	// component: do nothing").
	stateless := cx.parent.ctype.Stateless()

	switch {
	case cx.parent.ctype == msg.External || stateless:
		// Algorithms 4/5 at the stateless component: do nothing.
	case p.cfg.LogMode == LogBaseline:
		lsn, err := p.appendRec(&outgoingRec{Ctx: cx.parent.id, Call: *call, Trace: call.Trace}, nil)
		if err != nil {
			return err
		}
		cx.lastLSN = lsn
		p.inject(PointClientBeforeForceSend)
		p.forceTraced(p.obs.ForceAtSend, cx.lastLSN, call.Trace, call.Method)
	default: // optimized
		switch {
		case p.cfg.SpecializedTypes && serverType == msg.Functional:
			// Algorithm 4: calling a functional server needs no force.
			p.obs.ElideFunctional.Inc()
		case roCall:
			// Algorithm 5: "we do not force the log when calling a
			// read-only component".
			p.obs.ElideReadOnly.Inc()
		case p.cfg.MultiCall && cx.multiCallSeen != nil && !cx.multiCallSeen[call.Target]:
			// Section 3.5: first call to this server during this
			// method execution — its reply nondeterminism is captured
			// in the server's last call table; skip the force.
			cx.multiCallSeen[call.Target] = true
			p.obs.ElideMultiCall.Inc()
		default:
			// The send message itself is not written (replay recreates
			// it) but all of this context's previous records must be
			// stable.
			p.inject(PointClientBeforeForceSend)
			p.forceTraced(p.obs.ForceAtSend, cx.lastLSN, call.Trace, call.Method)
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
			Proc:   p.name,
			Method: call.Method,
		})
	}

	// Condition 4: repeat the call until some response arrives.
	if err := p.u.send(call, reply, p.cfg.retryLimit(), p.cfg.retryInterval(), p.tr); err != nil {
		return err
	}
	resumeStart := p.tr.Now()

	// Learn the server's type from the reply attachment.
	if reply.HasAttachment {
		p.remoteTypes.learn(call.Target, call.Method, reply.ServerType, reply.MethodReadOnly)
		serverType = reply.ServerType
		roMethod = reply.MethodReadOnly
		roCall = p.cfg.SpecializedTypes && (serverType == msg.ReadOnly || roMethod)
	}

	// Client-side logging for message 4.
	switch {
	case cx.parent.ctype == msg.External || stateless:
		// Nothing at stateless callers.
	default:
		// A reply to a live send during replay (cx.recovering) is the
		// current end of history for this context: it is logged like
		// any other, so a second failure replays it too.
		if p.cfg.LogMode == LogBaseline {
			cx.outgoingReply = outgoingReplyRec{Ctx: cx.parent.id, Reply: *reply, Trace: call.Trace}
			lsn, err := p.appendRec(&cx.outgoingReply, &cx.chainHead)
			if err != nil {
				return err
			}
			cx.lastLSN = lsn
			p.inject(PointClientBeforeForceReply)
			p.forceTraced(p.obs.ForceAtOutgoingReply, cx.lastLSN, call.Trace, call.Method)
		} else if p.cfg.SpecializedTypes && serverType == msg.Functional {
			// Algorithm 4: "Do nothing" — a functional reply is
			// recomputable by re-invoking the pure function.
		} else {
			// Optimized: log message 4 without forcing. Read-only
			// replies are unrepeatable and must be logged too
			// (Algorithm 5: "Log message 4").
			cx.outgoingReply = outgoingReplyRec{Ctx: cx.parent.id, Reply: *reply, Trace: call.Trace}
			lsn, err := p.appendRec(&cx.outgoingReply, &cx.chainHead)
			if err != nil {
				return err
			}
			cx.lastLSN = lsn
		}
	}
	p.inject(PointClientAfterReply)
	p.traceSpan(call, trace.StageClientResume, resumeStart)
	return nil
}

// send resolves the target and drives the transport with retries,
// decoding the answer into reply. tr (optional) records the round trip
// as a StageTransport span of the call's trace — including retries,
// which are part of what the caller waited for.
func (u *Universe) send(call *msg.Call, reply *msg.Reply, retries int, interval time.Duration, tr *trace.Recorder) error {
	addr, err := u.addrForURI(call.Target)
	if err != nil {
		return err
	}
	data, err := msg.EncodeCall(call)
	if err != nil {
		return err
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
		if err := msg.DecodeReplyInto(respData, reply); err != nil {
			return err
		}
		// A reply answers one call: a peer's reply to another is refused
		// as an undecodable one is, before anything logs it as message 4.
		if reply.ID != call.ID {
			return fmt.Errorf("core: %s.%s: call %v answered by a reply to call %v", call.Target, call.Method, call.ID, reply.ID)
		}
		if reply.Fault != "" {
			return &Fault{Msg: reply.Fault}
		}
		if tr != nil && !call.Trace.IsZero() {
			tr.Record(trace.SpanData{
				Ref:    trace.Ref{Trace: call.Trace.Trace, Span: tr.NewSpan()},
				Parent: call.Trace.Span,
				Stage:  trace.StageTransport,
				Start:  tstart,
				End:    tr.Now(),
				Method: call.Method,
			})
		}
		return nil
	}
	return fmt.Errorf("%w: %s after %d attempts: %v", ErrUnavailable, call.Target, retries, lastErr)
}
