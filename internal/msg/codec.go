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
//	Call  = 0xC1 body;  Reply = 0xC2 body (version byte only at the
//	outermost envelope — embedded copies inside log records use the
//	bare body via AppendCall/ConsumeCall).
//
//	Traced Call  = 0xC6 TraceID SpanID body
//	Traced Reply = 0xC7 TraceID SpanID body
//
// The traced envelopes prepend the causal-trace identity as two
// uvarints before the same bare body. Encoders emit them only for a
// nonzero Trace: an untraced message does not pay for two zero bytes
// (DESIGN.md Section 10 has the measurement).
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

import "errors"

const (
	// verCall and verReply are the envelope version bytes. 0xC3 (hot
	// log records), 0xC4 (traced log records) and 0xC5 (serialized
	// component state) are taken by internal/core and internal/serial.
	verCall  = 0xC1
	verReply = 0xC2
	// verCallTraced and verReplyTraced frame envelopes that carry a
	// causal-trace identity (uvarint TraceID + SpanID before the bare
	// body).
	verCallTraced  = 0xC6
	verReplyTraced = 0xC7
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
// input. The exported consumers below copy it; ConsumeCall and
// ConsumeReply collect their fields' spans and copy them into one
// buffer (ownFields).
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

// ConsumeByte consumes one raw byte.
func ConsumeByte(data []byte) (byte, []byte, error) {
	if len(data) < 1 {
		return 0, nil, errShort
	}
	return data[0], data[1:], nil
}
