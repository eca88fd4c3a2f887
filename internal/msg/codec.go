// Binary envelope codec for Call and Reply.
//
// The envelope fields are a fixed, closed set, so they are encoded by
// hand: varints for integers, length-prefixed raw bytes for strings and
// byte slices, one flag byte for the bools — no reflection and no type
// descriptors on any of the four Figure-1 message paths. The user
// argument/result values inside Args and Results, whose types are
// open, are a tagged value stream built from the same primitives
// (value.go).
//
// Format (DESIGN.md Section 10). All integers are unsigned varints
// (encoding/binary uvarint); "bytes" means uvarint length + raw bytes.
//
//	Call  = 0xC6 trace body;  Reply = 0xC7 trace body. No log record
//	embeds a bare body: a record lays out only the fields its
//	replay reads (internal/core, records_codec.go), with the
//	primitives below and the one-buffer ownership of Fields.Own.
//
//	trace = TraceID, then SpanID only when TraceID is not 0
//	        (AppendTrace; an untraced message carries one zero byte)
//
//	Call body:  Machine bytes, Proc, Comp, Seq, Target bytes,
//	            Method bytes, Args bytes, NumArgs, CallerType byte,
//	            CallerURI bytes, flags byte (bit0 ReadOnly,
//	            bit1 KnowsServer)
//	Reply body: Machine bytes, Proc, Comp, Seq, Results bytes,
//	            NumResults, AppErr bytes, Fault bytes, flags byte
//	            (bit0 HasAttachment, bit1 MethodReadOnly),
//	            ServerType byte
//
// The version byte is the format: DecodeCall/DecodeReply reject any
// other first byte with an error that names it.
package msg

import (
	"errors"
	"fmt"

	"repro/internal/obs/trace"
)

// envCall and envReply are the envelope version bytes. 0xC5
// (serialized component state) and 0xC9 (log records) are taken by
// internal/serial and internal/core; the four bytes below 0xC5, which
// the untraced envelopes and the older record headers used, and 0xC8,
// the record header of the layout that embedded these bodies, are
// retired and never reused.
const (
	envCall  = 0xC6
	envReply = 0xC7
)

// errShort reports a truncated or corrupt binary envelope.
var errShort = errors.New("msg: short binary envelope")

// AppendUvarint appends v as an unsigned varint. Hand-rolled rather
// than binary.AppendUvarint so the loop inlines into the appenders.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendBytes appends a uvarint length prefix followed by b.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a uvarint length prefix followed by s.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ConsumeUvarint consumes a uvarint from data.
func ConsumeUvarint(data []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(data); i++ {
		b := data[i]
		if b < 0x80 {
			if i > 9 || (i == 9 && b > 1) {
				return 0, nil, errors.New("msg: varint overflows uint64")
			}
			return v | uint64(b)<<(7*i), data[i+1:], nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, nil, errShort
}

// consumeSpan consumes a length-prefixed field and returns it as a
// view of data: the one place a field's length is held against the
// input. ConsumeBytes and ConsumeString copy it; a message decoder
// reads its fields' spans (Fields.Span) and copies them into one
// buffer (Fields.Own).
func consumeSpan(data []byte) ([]byte, []byte, error) {
	n, rest, err := ConsumeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, errShort
	}
	return rest[:n], rest[n:], nil
}

// ConsumeBytes consumes a length-prefixed byte field and returns a COPY.
// Decoded values must not alias the input: transport reads and WAL
// cursors reuse their buffers, and core retains decoded records across
// replay (DESIGN.md Section 10 ownership rules).
func ConsumeBytes(data []byte) ([]byte, []byte, error) {
	span, rest, err := consumeSpan(data)
	if err != nil || len(span) == 0 {
		return nil, rest, err
	}
	return append(make([]byte, 0, len(span)), span...), rest, nil
}

// ConsumeString consumes a length-prefixed string field (string(…) makes
// the copy).
func ConsumeString(data []byte) (string, []byte, error) {
	span, rest, err := consumeSpan(data)
	return string(span), rest, err
}

// AppendTrace appends the trace field every envelope and log record
// header carries: tr's TraceID, then its SpanID only when the TraceID
// is not 0 — every span is minted under a nonzero TraceID, so a zero
// Ref is one byte.
func AppendTrace(dst []byte, tr trace.Ref) []byte {
	dst = AppendUvarint(dst, tr.Trace)
	if tr.Trace == 0 {
		return dst
	}
	return AppendUvarint(dst, tr.Span)
}

// ConsumeTrace consumes a trace field (AppendTrace) into tr.
func ConsumeTrace(data []byte, tr *trace.Ref) ([]byte, error) {
	var err error
	*tr = trace.Ref{}
	if tr.Trace, data, err = ConsumeUvarint(data); err == nil && tr.Trace != 0 {
		tr.Span, data, err = ConsumeUvarint(data)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return data, nil
}

// ConsumeByte consumes one raw byte.
func ConsumeByte(data []byte) (byte, []byte, error) {
	if len(data) < 1 {
		return 0, nil, errShort
	}
	return data[0], data[1:], nil
}
