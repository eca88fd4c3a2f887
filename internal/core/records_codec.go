package core

import (
	"fmt"
	"reflect"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// Payload codec for the log records: one header, one decoder
// (decodeRec), and a body that depends on how often the kind is written.
//
// Header (DESIGN.md Section 10): 0xC9, uvarint owning context (0 for a
// process-wide checkpoint record), then the trace field every envelope
// carries (msg.AppendTrace: one zero byte when untraced) — so recCtx
// tells whose any record is, and a timeline scan its trace, without
// decoding the body. The kind is the frame's type byte, which the
// frame's CRC covers; the payload does not repeat it.
//
// The five kinds written on the Figure-1 hot paths — incoming,
// reply-sent, reply-content, outgoing, outgoing-reply — are appended
// once per message, so their bodies are laid out by hand and hold only
// the fields a reader of the log reads (appendCallBody,
// appendReplyBody; a reply-sent record is the header alone). The cold
// kinds — creation, context state, the checkpoint records — are rare
// and nested, so their body is their struct laid out by its msg.Plan;
// a begin-checkpoint record has no body.

// recVer opens every record payload. 0xC8, the layout whose message
// records embedded wire bodies, is retired: a payload opening with it
// fails naming it.
const recVer = 0xC9

// appendRecHeader opens a record payload: the version byte, the owning
// context and the trace field.
func appendRecHeader(dst []byte, ctx ids.CompID, tr trace.Ref) []byte {
	return msg.AppendTrace(msg.AppendUvarint(append(dst, recVer), uint64(ctx)), tr)
}

// consumeRecHeader parses the header every record payload opens with
// (appendRecHeader). body is what follows — the kind's fields. Any other
// version byte is an error that names it.
func consumeRecHeader(data []byte) (ctx ids.CompID, tr trace.Ref, body []byte, err error) {
	if len(data) == 0 {
		return 0, tr, nil, fmt.Errorf("empty payload")
	}
	if data[0] != recVer {
		return 0, tr, nil, fmt.Errorf("unknown record version byte %#x", data[0])
	}
	var u uint64
	if u, body, err = msg.ConsumeUvarint(data[1:]); err == nil {
		body, err = msg.ConsumeTrace(body, &tr)
	}
	return ids.CompID(u), tr, body, err
}

// appendCallBody lays out a call record (incoming; the baseline's
// outgoing, which only phoenix-logdump reads): the call ID, for Pass
// 1's last-call seeding (msgHead: it stays first) and the replayed
// reply's last-call entry; method, args and num args, for
// replayIncoming's Bind. The target is the header's context.
func appendCallBody(dst []byte, c *msg.Call) []byte {
	dst = msg.AppendString(msg.AppendCallID(dst, c.ID), c.Method)
	return msg.AppendUvarint(msg.AppendBytes(dst, c.Args), uint64(c.NumArgs))
}

// readCallBody reads a call record's body into c, owning one buffer.
func readCallBody(f *msg.Fields, c *msg.Call) error {
	str := [2][]byte{f.CallID(&c.ID), f.Span()} // machine, method: views of the payload
	args := f.Span()
	c.NumArgs = int(f.Uvarint())
	var own [2]string
	c.Args = f.Own(args, str[:], own[:])
	c.ID.Caller.Machine, c.Method = own[0], own[1]
	return f.End()
}

// appendReplyBody lays out what follows a reply record's key (a call
// ID, or an outgoing-reply's sequence number): results, num results
// and app error, what a duplicate call is answered with or a
// suppressed call returns in replay. A Fault is never logged, nor the
// attachment: an answer computes it from its call (attach, DESIGN §10).
func appendReplyBody(dst []byte, r *msg.Reply) []byte {
	dst = msg.AppendUvarint(msg.AppendBytes(dst, r.Results), uint64(r.NumResults))
	return msg.AppendString(dst, r.AppErr)
}

// readReplyBody reads a reply record's body into r, owning one buffer,
// with machine (nil for an outgoing reply) as its ID's machine name.
func readReplyBody(f *msg.Fields, r *msg.Reply, machine []byte) error {
	results := f.Span()
	r.NumResults = int(f.Uvarint())
	str := [2][]byte{machine, f.Span()} // machine, app error: views of the payload
	var own [2]string
	r.Results = f.Own(results, str[:], own[:])
	r.ID.Caller.Machine, r.AppErr = own[0], own[1]
	return f.End()
}

// recCtx returns the context a record belongs to without decoding the
// rest: recovery's scans read every message record's owner to file it
// under its context, and only a context's own replay decodes the message.
func recCtx(payload []byte) (ids.CompID, error) {
	ctx, _, _, err := consumeRecHeader(payload)
	if err != nil {
		return 0, fmt.Errorf("core: decode record owner: %w", err)
	}
	return ctx, nil
}

// msgHead reads a message record's owner off its header, and behind it
// an incoming call's ID — appendCallBody lays the ID out first —
// decoding nothing else: all Pass 1 wants of the message records it
// passes.
func msgHead(rec wal.Record) (ctx ids.CompID, id ids.CallID, err error) {
	ctx, _, body, err := consumeRecHeader(rec.Payload)
	if err == nil && rec.Type == recIncoming {
		f := msg.ReadFields(body)
		id.Caller.Machine = string(f.CallID(&id))
		err = f.Err()
	}
	if err != nil {
		err = fmt.Errorf("core: decode %s record head: %w", recName(rec.Type), err)
	}
	return ctx, id, err
}

// decodeRec decodes a record into v, one of the record structs of
// records.go, whose kind must be the frame's type: the frame type
// routed the caller here, so a mismatch is a mislabeled record or a
// reader asking for the wrong kind. The header's trace is restored into
// both the record's Trace field and its embedded Call/Reply; a message
// field the body does not carry comes back zero.
func decodeRec(rec wal.Record, v record) error {
	if kind, _, _ := v.head(); rec.Type != kind {
		return fmt.Errorf("core: decode a %s record as %s", recName(rec.Type), recName(kind))
	}
	ctx, tr, body, err := consumeRecHeader(rec.Payload)
	f := msg.ReadFields(body)
	if err == nil {
		switch r := v.(type) {
		case *incomingRec:
			*r = incomingRec{Ctx: ctx, Trace: tr, Call: msg.Call{Trace: tr}}
			err = readCallBody(&f, &r.Call)
		case *replySentRec:
			r.Ctx, r.Trace = ctx, tr
			err = f.End()
		case *replyContentRec:
			*r = replyContentRec{Ctx: ctx, Trace: tr, Reply: msg.Reply{Trace: tr}}
			err = readReplyBody(&f, &r.Reply, f.CallID(&r.Reply.ID))
		case *outgoingRec:
			*r = outgoingRec{Ctx: ctx, Trace: tr, Call: msg.Call{Trace: tr}}
			err = readCallBody(&f, &r.Call)
		case *outgoingReplyRec:
			*r = outgoingReplyRec{Ctx: ctx, Trace: tr, Reply: msg.Reply{Trace: tr}}
			r.Reply.ID.Seq = f.Uvarint()
			err = readReplyBody(&f, &r.Reply, nil)
		case *beginCkptRec:
			err = f.End()
		case *creationRec:
			err = readPlanBody(body, r) // a plan's read zeroes the struct first
			r.ctx = ctx
		case *ctxStateRec:
			err = readPlanBody(body, r)
			r.ctx = ctx
		default:
			err = readPlanBody(body, v)
		}
	}
	if err != nil {
		return fmt.Errorf("core: decode %s record: %w", recName(rec.Type), err)
	}
	return nil
}

// readPlanBody reads a cold record's body into v, a pointer to its
// struct, as the struct's plan lays it out; the plan reads to the end.
func readPlanBody(body []byte, v any) error {
	rv := reflect.ValueOf(v).Elem()
	p, err := msg.PlanFor(rv.Type())
	if err == nil {
		err = p.Read(body, rv)
	}
	return err
}

// appendColdRec appends the payload of a cold record: the header, then
// the body v's plan lays out.
func appendColdRec(dst []byte, v record) ([]byte, error) {
	_, ctx, tr := v.head()
	dst = appendRecHeader(dst, ctx, tr)
	rv := reflect.ValueOf(v).Elem()
	p, err := msg.PlanFor(rv.Type())
	if err == nil {
		dst, err = p.Append(dst, rv)
	}
	if err != nil {
		return nil, fmt.Errorf("core: encode %T: %w", v, err)
	}
	return dst, nil
}

// Every record type implements wal.PayloadEncoder, so appendRec hands
// the log an interface value that already exists (the record pointer)
// instead of wrapping a fresh closure per append — which keeps the
// per-call append path at zero allocations. The hot kinds lay their
// bodies out by hand, the cold ones by plan (appendColdRec).

func (r *incomingRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recIncoming, r.Ctx, r.Trace
}
func (r *incomingRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendCallBody(appendRecHeader(dst, r.Ctx, r.Trace), &r.Call), nil
}

func (r *replySentRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recReplySent, r.Ctx, r.Trace
}
func (r *replySentRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecHeader(dst, r.Ctx, r.Trace), nil
}

func (r *replyContentRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recReplyContent, r.Ctx, r.Trace
}
func (r *replyContentRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendReplyBody(msg.AppendCallID(appendRecHeader(dst, r.Ctx, r.Trace), r.Reply.ID), &r.Reply), nil
}

func (r *outgoingRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recOutgoing, r.Ctx, r.Trace
}
func (r *outgoingRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendCallBody(appendRecHeader(dst, r.Ctx, r.Trace), &r.Call), nil
}

func (r *outgoingReplyRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recOutgoingReply, r.Ctx, r.Trace
}
func (r *outgoingReplyRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendReplyBody(msg.AppendUvarint(appendRecHeader(dst, r.Ctx, r.Trace), r.Reply.ID.Seq), &r.Reply), nil
}

func (r *creationRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recCreation, r.ctx, trace.Ref{}
}
func (r *creationRec) AppendPayload(dst []byte) ([]byte, error) { return appendColdRec(dst, r) }

func (r *ctxStateRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recCtxState, r.ctx, trace.Ref{}
}
func (r *ctxStateRec) AppendPayload(dst []byte) ([]byte, error) { return appendColdRec(dst, r) }

func (*beginCkptRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recBeginCkpt, 0, trace.Ref{}
}
func (*beginCkptRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecHeader(dst, 0, trace.Ref{}), nil
}

func (*ckptCtxTableRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recCkptCtxTable, 0, trace.Ref{}
}
func (r *ckptCtxTableRec) AppendPayload(dst []byte) ([]byte, error) { return appendColdRec(dst, r) }

func (*ckptLastCallRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recCkptLastCall, 0, trace.Ref{}
}
func (r *ckptLastCallRec) AppendPayload(dst []byte) ([]byte, error) { return appendColdRec(dst, r) }

func (*endCkptRec) head() (wal.RecordType, ids.CompID, trace.Ref) { return recEndCkpt, 0, trace.Ref{} }
func (r *endCkptRec) AppendPayload(dst []byte) ([]byte, error)    { return appendColdRec(dst, r) }
