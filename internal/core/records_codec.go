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
// Header (DESIGN.md Section 10): 0xC8, uvarint owning context (0 for a
// process-wide checkpoint record), then the trace field every envelope
// carries (msg.AppendTrace: one zero byte when untraced) — so recCtx
// tells whose any record is, and a timeline scan its trace, without
// decoding the body. The kind is the frame's type byte, which the
// frame's CRC covers; the payload does not repeat it. Since the bare
// Call/Reply bodies never carry the trace, the header is the only
// durable home of a record's causal identity, and the decoder restores
// it into both the record's Trace field and its embedded message.
//
// The five kinds written on the Figure-1 hot paths — incoming,
// reply-sent, reply-content, outgoing, outgoing-reply — are appended
// once per message, so their bodies are laid out by hand with the msg
// codec primitives: an embedded Call/Reply as its bare envelope body
// (msg.AppendCall / msg.AppendReply), a reply-sent record as the call
// ID alone. The cold kinds — creation, context state, the checkpoint
// records — are rare and nested, so their body is their struct laid out
// by its msg.Plan, the layout the value codec gives any Go type; a
// begin-checkpoint record has no body.

// recVer is the byte opening every record payload.
const recVer = 0xC8

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

func appendCallID(dst []byte, id ids.CallID) []byte {
	dst = msg.AppendString(dst, id.Caller.Machine)
	dst = msg.AppendUvarint(dst, uint64(id.Caller.Proc))
	dst = msg.AppendUvarint(dst, uint64(id.Caller.Comp))
	return msg.AppendUvarint(dst, id.Seq)
}

func consumeCallID(data []byte, id *ids.CallID) ([]byte, error) {
	var err error
	var u uint64
	if id.Caller.Machine, data, err = msg.ConsumeString(data); err != nil {
		return nil, err
	}
	if u, data, err = msg.ConsumeUvarint(data); err != nil {
		return nil, err
	}
	id.Caller.Proc = ids.ProcID(u)
	if u, data, err = msg.ConsumeUvarint(data); err != nil {
		return nil, err
	}
	id.Caller.Comp = ids.CompID(u)
	id.Seq, data, err = msg.ConsumeUvarint(data)
	return data, err
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
// an incoming call's ID — msg.AppendCall lays the ID out first, as
// appendCallID does — decoding nothing else: all Pass 1 wants of the
// message records it passes.
func msgHead(rec wal.Record) (ctx ids.CompID, id ids.CallID, err error) {
	ctx, _, body, err := consumeRecHeader(rec.Payload)
	if err == nil && rec.Type == recIncoming {
		_, err = consumeCallID(body, &id)
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
// both the record's Trace field and its embedded Call/Reply, whose bare
// bodies never carry it.
func decodeRec(rec wal.Record, v record) error {
	if kind, _, _ := v.head(); rec.Type != kind {
		return fmt.Errorf("core: decode a %s record as %s", recName(rec.Type), recName(kind))
	}
	ctx, tr, body, err := consumeRecHeader(rec.Payload)
	if err == nil {
		switch r := v.(type) {
		case *incomingRec:
			r.Ctx, r.Trace = ctx, tr
			body, err = msg.ConsumeCall(body, &r.Call)
			r.Call.Trace = tr
		case *replySentRec:
			r.Ctx, r.Trace = ctx, tr
			body, err = consumeCallID(body, &r.CallID)
		case *replyContentRec:
			r.Ctx, r.Trace = ctx, tr
			body, err = msg.ConsumeReply(body, &r.Reply)
			r.Reply.Trace = tr
		case *outgoingRec:
			r.Ctx, r.Trace = ctx, tr
			body, err = msg.ConsumeCall(body, &r.Call)
			r.Call.Trace = tr
		case *outgoingReplyRec:
			r.Ctx, r.Trace = ctx, tr
			body, err = msg.ConsumeReply(body, &r.Reply)
			r.Reply.Trace = tr
		case *beginCkptRec:
		case *creationRec:
			body, err = readPlanBody(body, r) // a plan's read zeroes the struct first
			r.ctx = ctx
		case *ctxStateRec:
			body, err = readPlanBody(body, r)
			r.ctx = ctx
		default:
			body, err = readPlanBody(body, v)
		}
	}
	if err != nil {
		return fmt.Errorf("core: decode %s record: %w", recName(rec.Type), err)
	}
	if len(body) != 0 {
		return fmt.Errorf("core: decode %s record: %d trailing bytes", recName(rec.Type), len(body))
	}
	return nil
}

// readPlanBody reads a cold record's body into v, a pointer to its
// struct, as the struct's plan lays it out; the plan reads to the end.
func readPlanBody(body []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v).Elem()
	p, err := msg.PlanFor(rv.Type())
	if err == nil {
		err = p.Read(body, rv)
	}
	return nil, err
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
	return msg.AppendCall(appendRecHeader(dst, r.Ctx, r.Trace), &r.Call), nil
}

func (r *replySentRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recReplySent, r.Ctx, r.Trace
}
func (r *replySentRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendCallID(appendRecHeader(dst, r.Ctx, r.Trace), r.CallID), nil
}

func (r *replyContentRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recReplyContent, r.Ctx, r.Trace
}
func (r *replyContentRec) AppendPayload(dst []byte) ([]byte, error) {
	return msg.AppendReply(appendRecHeader(dst, r.Ctx, r.Trace), &r.Reply), nil
}

func (r *outgoingRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recOutgoing, r.Ctx, r.Trace
}
func (r *outgoingRec) AppendPayload(dst []byte) ([]byte, error) {
	return msg.AppendCall(appendRecHeader(dst, r.Ctx, r.Trace), &r.Call), nil
}

func (r *outgoingReplyRec) head() (wal.RecordType, ids.CompID, trace.Ref) {
	return recOutgoingReply, r.Ctx, r.Trace
}
func (r *outgoingReplyRec) AppendPayload(dst []byte) ([]byte, error) {
	return msg.AppendReply(appendRecHeader(dst, r.Ctx, r.Trace), &r.Reply), nil
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
