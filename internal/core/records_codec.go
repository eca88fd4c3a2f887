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
// Header (DESIGN.md Section 10): 0xC3, kind byte (the wal.RecordType,
// doubling as a schema check against the frame's type), uvarint owning
// context (0 for a process-wide checkpoint record) — so recCtx tells
// whose any record is without decoding it. A traced record is framed
// 0xC4, kind byte, uvarint TraceID, uvarint SpanID, owning context
// instead. The encoder emits 0xC4 only for a nonzero record trace (an
// untraced record does not pay for two zero bytes); since the bare
// Call/Reply bodies never carry the trace, the record header is the
// only durable home of a record's causal identity, and the decoder
// restores it into both the record's Trace field and its embedded
// message.
//
// The five kinds written on the Figure-1 hot paths — incoming,
// reply-sent, reply-content, outgoing, outgoing-reply — are appended
// once per message, so their bodies are laid out by hand with the msg
// codec primitives: the fields in the order of the struct definitions
// in records.go, embedded Call/Reply as bare envelope bodies
// (msg.AppendCall / msg.AppendReply — no 0xC1/0xC2). The cold kinds —
// creation, context state, the checkpoint records — are rare and
// nested, so their body is their struct laid out by its msg.Plan, the
// layout the value codec gives any Go type; a begin-checkpoint record
// has no body.

// recBinVer is the version byte opening a binary record payload;
// recBinVerTraced opens one carrying a causal-trace header.
const (
	recBinVer       = 0xC3
	recBinVerTraced = 0xC4
)

// appendRecHeader opens a record payload — the untraced 0xC3 header
// for a zero trace, the 0xC4 header with the trace identity otherwise —
// and appends the owning context.
func appendRecHeader(dst []byte, t wal.RecordType, tr trace.Ref, ctx ids.CompID) []byte {
	if tr.IsZero() {
		dst = append(dst, recBinVer, byte(t))
	} else {
		dst = append(dst, recBinVerTraced, byte(t))
		dst = msg.AppendUvarint(dst, tr.Trace)
		dst = msg.AppendUvarint(dst, tr.Span)
	}
	return msg.AppendUvarint(dst, uint64(ctx))
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

// consumeRecHeader parses the head every record payload shares:
// version byte, kind byte, the causal trace when the version is 0xC4,
// then the owning context. body is what follows — the per-kind fields.
// Any other version byte is an error that names it.
func consumeRecHeader(data []byte) (kind wal.RecordType, tr trace.Ref, ctx ids.CompID, body []byte, err error) {
	if len(data) < 2 {
		return 0, tr, 0, nil, fmt.Errorf("%d-byte payload", len(data))
	}
	kind, body = wal.RecordType(data[1]), data[2:]
	switch data[0] {
	case recBinVer:
	case recBinVerTraced:
		if tr.Trace, body, err = msg.ConsumeUvarint(body); err == nil {
			tr.Span, body, err = msg.ConsumeUvarint(body)
		}
		if err != nil {
			return 0, tr, 0, nil, fmt.Errorf("trace: %w", err)
		}
	default:
		return 0, tr, 0, nil, fmt.Errorf("unknown record version byte %#x", data[0])
	}
	var u uint64
	u, body, err = msg.ConsumeUvarint(body)
	return kind, tr, ids.CompID(u), body, err
}

// recCtx returns the context a record belongs to without decoding the
// rest: recovery's scans read every message record's owner to file it
// under its context, and only a context's own replay decodes the message.
func recCtx(payload []byte) (ids.CompID, error) {
	_, _, ctx, _, err := consumeRecHeader(payload)
	if err != nil {
		return 0, fmt.Errorf("core: decode record owner: %w", err)
	}
	return ctx, nil
}

// msgHead reads a type-t message record's owner off the head of its
// payload, and behind it an incoming call's ID — msg.AppendCall lays the
// ID out first, as appendCallID does — decoding nothing else: all Pass 1
// wants of the message records it passes.
func msgHead(t wal.RecordType, payload []byte) (ctx ids.CompID, id ids.CallID, err error) {
	kind, _, ctx, body, err := consumeRecHeader(payload)
	if err == nil && kind != t {
		err = fmt.Errorf("payload kind %s", recName(kind))
	}
	if err == nil && t == recIncoming {
		_, err = consumeCallID(body, &id)
	}
	if err != nil {
		err = fmt.Errorf("core: decode %s record head: %w", recName(t), err)
	}
	return ctx, id, err
}

// coldKinds names the record type each plan-encoded struct is the
// payload of.
var coldKinds = map[reflect.Type]wal.RecordType{
	reflect.TypeOf(creationRec{}):     recCreation,
	reflect.TypeOf(ctxStateRec{}):     recCtxState,
	reflect.TypeOf(ckptCtxTableRec{}): recCkptCtxTable,
	reflect.TypeOf(ckptLastCallRec{}): recCkptLastCall,
	reflect.TypeOf(endCkptRec{}):      recEndCkpt,
}

// appendColdRec appends the payload of a cold record: the header, then
// v (a pointer to the kind's struct; nil for a kind with no body) as
// its plan lays it out.
func appendColdRec(dst []byte, t wal.RecordType, ctx ids.CompID, v any) ([]byte, error) {
	dst = appendRecHeader(dst, t, trace.Ref{}, ctx)
	if v == nil {
		return dst, nil
	}
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

// decodeRec decodes a record payload into v, a pointer to one of the
// record structs of records.go, verifying the header's kind byte
// matches it (the frame type routed the caller here, so a mismatch
// means a corrupt or mislabeled record). A 0xC4 header's trace is
// restored into both the record's Trace field and its embedded
// Call/Reply, whose bare bodies never carry it.
func decodeRec(data []byte, v any) error {
	kind, tr, ctx, body, err := consumeRecHeader(data)
	if err != nil {
		return fmt.Errorf("core: decode %T: %w", v, err)
	}
	want := wal.RecordType(0)
	switch r := v.(type) {
	case *incomingRec:
		want = recIncoming
		r.Ctx = ctx
		r.Trace = tr
		body, err = msg.ConsumeCall(body, &r.Call)
		r.Call.Trace = tr
	case *replySentRec:
		want = recReplySent
		r.Ctx = ctx
		r.Trace = tr
		body, err = consumeCallID(body, &r.CallID)
	case *replyContentRec:
		want = recReplyContent
		r.Ctx = ctx
		r.Trace = tr
		if body, err = consumeCallID(body, &r.CallID); err == nil {
			body, err = msg.ConsumeReply(body, &r.Reply)
		}
		r.Reply.Trace = tr
	case *outgoingRec:
		want = recOutgoing
		r.Ctx = ctx
		r.Trace = tr
		body, err = msg.ConsumeCall(body, &r.Call)
		r.Call.Trace = tr
	case *outgoingReplyRec:
		want = recOutgoingReply
		r.Ctx = ctx
		r.Trace = tr
		if r.Seq, body, err = msg.ConsumeUvarint(body); err == nil {
			body, err = msg.ConsumeReply(body, &r.Reply)
		}
		r.Reply.Trace = tr
	default:
		rv := reflect.ValueOf(v).Elem()
		var p *msg.Plan
		if want = coldKinds[rv.Type()]; want == kind {
			if p, err = msg.PlanFor(rv.Type()); err == nil {
				body, err = nil, p.Read(body, rv)
			}
		}
	}
	if kind != want {
		return fmt.Errorf("core: decode %T: payload kind %s, want %s", v, recName(kind), recName(want))
	}
	if err != nil {
		return fmt.Errorf("core: decode %T: %w", v, err)
	}
	if len(body) != 0 {
		return fmt.Errorf("core: decode %T: %d trailing bytes", v, len(body))
	}
	return nil
}

// The hot record types implement wal.PayloadEncoder directly, so
// appendRec hands the log an interface value that already exists (the
// record pointer) instead of wrapping a fresh closure per append —
// the assertion is what keeps the per-call append path at zero
// allocations.

// AppendPayload implements wal.PayloadEncoder.
func (r *incomingRec) AppendPayload(dst []byte) ([]byte, error) {
	dst = appendRecHeader(dst, recIncoming, r.Trace, r.Ctx)
	return msg.AppendCall(dst, &r.Call), nil
}

// AppendPayload implements wal.PayloadEncoder.
func (r *replySentRec) AppendPayload(dst []byte) ([]byte, error) {
	dst = appendRecHeader(dst, recReplySent, r.Trace, r.Ctx)
	return appendCallID(dst, r.CallID), nil
}

// AppendPayload implements wal.PayloadEncoder.
func (r *replyContentRec) AppendPayload(dst []byte) ([]byte, error) {
	dst = appendRecHeader(dst, recReplyContent, r.Trace, r.Ctx)
	dst = appendCallID(dst, r.CallID)
	return msg.AppendReply(dst, &r.Reply), nil
}

// AppendPayload implements wal.PayloadEncoder.
func (r *outgoingRec) AppendPayload(dst []byte) ([]byte, error) {
	dst = appendRecHeader(dst, recOutgoing, r.Trace, r.Ctx)
	return msg.AppendCall(dst, &r.Call), nil
}

// AppendPayload implements wal.PayloadEncoder.
func (r *outgoingReplyRec) AppendPayload(dst []byte) ([]byte, error) {
	dst = appendRecHeader(dst, recOutgoingReply, r.Trace, r.Ctx)
	dst = msg.AppendUvarint(dst, r.Seq)
	return msg.AppendReply(dst, &r.Reply), nil
}
