package core

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// Binary payload codec for the per-call log records. The five record
// kinds written on the Figure-1 hot paths — incoming, reply-sent,
// reply-content, outgoing, outgoing-reply — are appended once per
// message, so their payloads use the hand-rolled binary format of
// internal/msg instead of gob (a fresh gob stream per record re-emits
// type descriptors every time). Cold records — creation, context
// state, checkpoint dumps — stay gob: they are rare, nested, and not
// worth a hand-maintained schema.
//
// Format (DESIGN.md Section 10): 0xC3, kind byte (the wal.RecordType,
// doubling as a schema check against the frame's type), then the
// per-kind fields in the order of the struct definitions in
// records.go, encoded with the msg codec primitives (uvarints,
// length-prefixed bytes). Embedded Call/Reply bodies use the bare
// envelope bodies (msg.AppendCall / msg.AppendReply — no 0xC1/0xC2).
//
// Traced records (PR 6) are framed 0xC4, kind byte, uvarint TraceID,
// uvarint SpanID, then the identical 0xC3 tail. The encoder emits 0xC4
// only for a nonzero record trace, so untraced logs stay bit-for-bit
// in the PR-5 format; since the bare Call/Reply bodies never carry the
// trace, the record header is the only durable home of a record's
// causal identity, and the decoder restores it into both the record's
// Trace field and its embedded message.
//
// 0xC3 and 0xC4 live in the 0x80..0xF7 range no gob stream can start
// with, so decodeRec falls back to gob on any other first byte and
// logs written before this codec replay unchanged (the mixed-format
// recovery test proves it).

// recBinVer is the version byte opening a binary record payload;
// recBinVerTraced opens one carrying a causal-trace header.
const (
	recBinVer       = 0xC3
	recBinVerTraced = 0xC4
)

// legacyRecEncoding is a test hook: when true, appendRecInto writes
// every record payload in the legacy gob format, so tests can produce
// old-format logs with the current runtime and prove mixed-format
// recovery.
var legacyRecEncoding = false

// recCodecMetrics counts record-payload codec activity on the default
// registry (the per-process registries track record kinds; the codec
// split is global).
var recCodecMetrics = obs.CodecView(obs.Default())

// appendRecInto appends the encoded payload of v (a record struct
// pointer, as passed to appendRec) for record type t onto dst. Hot
// record kinds get the binary format; anything else falls back to gob.
func appendRecInto(dst []byte, t wal.RecordType, v any) ([]byte, error) {
	if !legacyRecEncoding {
		switch r := v.(type) {
		case *incomingRec:
			dst = appendRecHeader(dst, t, r.Trace)
			dst = msg.AppendUvarint(dst, uint64(r.Ctx))
			return msg.AppendCall(dst, &r.Call), nil
		case *replySentRec:
			dst = appendRecHeader(dst, t, r.Trace)
			dst = msg.AppendUvarint(dst, uint64(r.Ctx))
			return appendCallID(dst, r.CallID), nil
		case *replyContentRec:
			dst = appendRecHeader(dst, t, r.Trace)
			dst = msg.AppendUvarint(dst, uint64(r.Ctx))
			dst = appendCallID(dst, r.CallID)
			return msg.AppendReply(dst, &r.Reply), nil
		case *outgoingRec:
			dst = appendRecHeader(dst, t, r.Trace)
			dst = msg.AppendUvarint(dst, uint64(r.Ctx))
			return msg.AppendCall(dst, &r.Call), nil
		case *outgoingReplyRec:
			dst = appendRecHeader(dst, t, r.Trace)
			dst = msg.AppendUvarint(dst, uint64(r.Ctx))
			dst = msg.AppendUvarint(dst, r.Seq)
			return msg.AppendReply(dst, &r.Reply), nil
		}
	}
	b, err := encodeRec(v)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// appendRecHeader opens a binary record payload: the untraced 0xC3
// header for a zero trace (keeping untraced logs bit-for-bit PR-5),
// the 0xC4 header with the trace identity otherwise.
func appendRecHeader(dst []byte, t wal.RecordType, tr trace.Ref) []byte {
	if tr.IsZero() {
		return append(dst, recBinVer, byte(t))
	}
	dst = append(dst, recBinVerTraced, byte(t))
	dst = msg.AppendUvarint(dst, tr.Trace)
	return msg.AppendUvarint(dst, tr.Span)
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
func consumeRecHeader(data []byte) (kind wal.RecordType, tr trace.Ref, ctx ids.CompID, body []byte, err error) {
	kind, body = wal.RecordType(data[1]), data[2:]
	if data[0] == recBinVerTraced {
		if tr.Trace, body, err = msg.ConsumeUvarint(body); err == nil {
			tr.Span, body, err = msg.ConsumeUvarint(body)
		}
		if err != nil {
			return 0, tr, 0, nil, fmt.Errorf("trace: %w", err)
		}
	}
	var u uint64
	u, body, err = msg.ConsumeUvarint(body)
	return kind, tr, ids.CompID(u), body, err
}

// recCtx returns the context a message record belongs to without
// decoding the message: the index scan of recovery reads every
// record's owner and only a context's own replay decodes the rest. A
// gob payload (a hot record from a pre-codec log) is decoded for its
// Ctx field alone; gob skips the fields the receiver lacks.
func recCtx(payload []byte) (ids.CompID, error) {
	if binaryRec(payload) {
		_, _, ctx, _, err := consumeRecHeader(payload)
		if err != nil {
			return 0, fmt.Errorf("core: decode record owner: %w", err)
		}
		return ctx, nil
	}
	var head struct{ Ctx ids.CompID }
	err := decodeRec(payload, &head)
	return head.Ctx, err
}

// binaryRec reports whether a record payload opens with one of the
// binary codec's version bytes (anything else is gob).
func binaryRec(data []byte) bool {
	return len(data) >= 2 && (data[0] == recBinVer || data[0] == recBinVerTraced)
}

// decodeRecBinary decodes a 0xC3 or 0xC4 payload into v, verifying the
// kind byte matches the record struct the caller expects (the frame
// type routed the caller here, so a mismatch means a corrupt or
// mislabeled record, not a version issue). A 0xC4 header's trace is
// restored into both the record's Trace field and its embedded
// Call/Reply, whose bare bodies never carry it.
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
		return fmt.Errorf("core: decode %T: binary payload for a gob-only record", v)
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

// hotRecord reports whether v is one of the record kinds the binary
// codec covers (used to classify gob payloads as legacy).
func hotRecord(v any) bool {
	switch v.(type) {
	case *incomingRec, *replySentRec, *replyContentRec, *outgoingRec, *outgoingReplyRec:
		return true
	}
	return false
}

// The hot record types implement wal.PayloadEncoder directly, so
// appendRec hands the log an interface value that already exists (the
// record pointer) instead of wrapping a fresh closure per append —
// the assertion is what keeps the per-call append path at zero
// allocations. Each delegates to appendRecInto, so the legacy-format
// test hook and the gob fallback apply unchanged.

// AppendPayload implements wal.PayloadEncoder.
func (r *incomingRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecInto(dst, recIncoming, r)
}

// AppendPayload implements wal.PayloadEncoder.
func (r *replySentRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecInto(dst, recReplySent, r)
}

// AppendPayload implements wal.PayloadEncoder.
func (r *replyContentRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecInto(dst, recReplyContent, r)
}

// AppendPayload implements wal.PayloadEncoder.
func (r *outgoingRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecInto(dst, recOutgoing, r)
}

// AppendPayload implements wal.PayloadEncoder.
func (r *outgoingReplyRec) AppendPayload(dst []byte) ([]byte, error) {
	return appendRecInto(dst, recOutgoingReply, r)
}
