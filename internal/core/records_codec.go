package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// Binary payload codec for the per-call log records. The five record
// kinds written on the Figure-1 hot paths — incoming, reply-sent,
// reply-content, outgoing, outgoing-reply — are appended once per
// message, so their payloads use the hand-rolled binary format of
// internal/msg (a fresh gob stream per record would re-emit type
// descriptors every time). Cold records — creation, context state,
// checkpoint dumps — are gob: they are rare, nested, and not worth a
// hand-maintained schema. A record kind has exactly one format: the
// hot kinds are the ones that implement wal.PayloadEncoder below, and
// decodeRec sends those, and only those, through this codec.
//
// Format (DESIGN.md Section 10): 0xC3, kind byte (the wal.RecordType,
// doubling as a schema check against the frame's type), then the
// per-kind fields in the order of the struct definitions in
// records.go, encoded with the msg codec primitives (uvarints,
// length-prefixed bytes). Embedded Call/Reply bodies use the bare
// envelope bodies (msg.AppendCall / msg.AppendReply — no 0xC1/0xC2).
//
// Traced records are framed 0xC4, kind byte, uvarint TraceID, uvarint
// SpanID, then the identical 0xC3 tail. The encoder emits 0xC4 only
// for a nonzero record trace (an untraced record does not pay for two
// zero bytes); since the bare Call/Reply bodies never carry the trace,
// the record header is the only durable home of a record's causal
// identity, and the decoder restores it into both the record's Trace
// field and its embedded message.

// recBinVer is the version byte opening a binary record payload;
// recBinVerTraced opens one carrying a causal-trace header.
const (
	recBinVer       = 0xC3
	recBinVerTraced = 0xC4
)

// appendRecHeader opens a binary record payload — the untraced 0xC3
// header for a zero trace, the 0xC4 header with the trace identity
// otherwise — and appends the owning context every hot record leads
// with.
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

// consumeRecHeader parses the head every binary record payload shares:
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

// recCtx returns the context a message record belongs to without
// decoding the message: the index scan of recovery reads every
// record's owner and only a context's own replay decodes the rest.
func recCtx(payload []byte) (ids.CompID, error) {
	_, _, ctx, _, err := consumeRecHeader(payload)
	if err != nil {
		return 0, fmt.Errorf("core: decode record owner: %w", err)
	}
	return ctx, nil
}

// decodeRecBinary decodes a 0xC3 or 0xC4 payload into v, verifying the
// kind byte matches the record struct the caller expects (the frame
// type routed the caller here, so a mismatch means a corrupt or
// mislabeled record). A 0xC4 header's trace is restored into both the
// record's Trace field and its embedded Call/Reply, whose bare bodies
// never carry it.
func decodeRecBinary(data []byte, v any) error {
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
		return fmt.Errorf("core: decode %T: not a binary record kind", v)
	}
	if err != nil {
		return fmt.Errorf("core: decode %T: %w", v, err)
	}
	if kind != want {
		return fmt.Errorf("core: decode %T: payload kind %s, want %s", v, recName(kind), recName(want))
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
