// Package msg defines the wire messages exchanged between Phoenix/App
// contexts: method-call messages and their replies (messages 1-4 of
// paper Figure 1 — an incoming call and its reply are the same wire
// message seen from the server and client side respectively).
//
// Messages carry the component-type attachments of Section 3.4: a
// client attaches its (parent) component type so the server can pick a
// logging discipline, and the server attaches its type in the reply so
// the client can populate its remote component type table. The
// attachment also implements the Section 5.2.3 optimization: the client
// sets KnowsServer once it has learned the server's type, letting the
// server omit the reply attachment.
package msg

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/obs/trace"
)

// ComponentType enumerates the Phoenix/App component kinds of
// Sections 2 and 3.2. External is the default for components the
// runtime knows nothing about and makes no guarantees for.
type ComponentType uint8

const (
	// External components get no logging and no guarantees.
	External ComponentType = iota
	// Persistent components are transparently logged and recovered.
	Persistent
	// Subordinate components live in their parent's context and accept
	// calls only from the parent and sibling subordinates.
	Subordinate
	// Functional components are stateless and pure; they call only
	// other functional components.
	Functional
	// ReadOnly components are stateless but may read persistent
	// servers; their replies are not repeatable.
	ReadOnly
)

// String returns the paper's name for the component type.
func (t ComponentType) String() string {
	switch t {
	case External:
		return "External"
	case Persistent:
		return "Persistent"
	case Subordinate:
		return "Subordinate"
	case Functional:
		return "Functional"
	case ReadOnly:
		return "ReadOnly"
	default:
		return fmt.Sprintf("ComponentType(%d)", uint8(t))
	}
}

// Stateless reports whether the component type keeps no recoverable
// state (functional and read-only components, Section 3.2).
func (t ComponentType) Stateless() bool {
	return t == Functional || t == ReadOnly
}

// Call is a method-call message (message 1/3 of Figure 1).
type Call struct {
	// ID is the globally unique method-call ID (condition 2). It is
	// zero when the caller is an external component.
	ID ids.CallID
	// Target is the URI of the component being called.
	Target ids.URI
	// Method is the exported method name to invoke.
	Method string
	// Args is the value stream (value.go) of the NumArgs argument
	// values.
	Args []byte
	// NumArgs is the number of encoded arguments.
	NumArgs int

	// CallerType is the Section 3.4 attachment: the type of the
	// calling component (the parent component of its context).
	CallerType ComponentType
	// CallerURI lets the server name the caller (diagnostics only).
	CallerURI ids.URI
	// ReadOnly marks the call as one the caller treats as read-only
	// (call to a read-only method, learned from the remote component
	// type table or declared by the proxy).
	ReadOnly bool
	// KnowsServer tells the server that the caller already knows the
	// server's component type, so the reply attachment may be omitted
	// (the Section 5.2.3 optimization).
	KnowsServer bool

	// Trace is the causal-trace identity of this call (zero when
	// tracing is off or the caller predates it). It rides the traced
	// envelope (0xC6), never the bare body, so untraced wire bytes are
	// unchanged.
	Trace trace.Ref
}

// Reply is a method-reply message (message 2/4 of Figure 1).
type Reply struct {
	// ID echoes the call's ID.
	ID ids.CallID
	// Results is the value stream of the NumResults return values,
	// excluding a trailing error.
	Results []byte
	// NumResults is the number of encoded results.
	NumResults int
	// AppErr carries a non-nil error returned by the method itself
	// (an application error: the component is alive; condition 4's
	// retries do not apply).
	AppErr string
	// Fault carries a runtime infrastructure error (no such component,
	// no such method, undecodable arguments). Like AppErr it means the
	// server process is alive, so the client must not retry.
	Fault string

	// HasAttachment tells the client the three fields below are set;
	// it is false when the call's KnowsServer let the server omit them.
	HasAttachment bool
	// ServerType is the server's component type.
	ServerType ComponentType
	// MethodReadOnly reports that the invoked method carries the
	// read-only attribute (Section 3.3).
	MethodReadOnly bool

	// Trace echoes the call's causal-trace identity (zero when the
	// call was untraced); rides the traced envelope (0xC7) only.
	Trace trace.Ref
}

// EncodeCall serializes a Call for the transport: the binary envelope
// of codec.go, in a pooled buffer. The caller owns the returned slice
// until it calls FreeBuf (callers that cannot prove release just skip
// FreeBuf; see pool.go).
func EncodeCall(c *Call) ([]byte, error) {
	var buf []byte
	if c.Trace.IsZero() {
		buf = append(GetBuf(), verCall)
	} else {
		buf = append(GetBuf(), verCallTraced)
		buf = AppendUvarint(buf, c.Trace.Trace)
		buf = AppendUvarint(buf, c.Trace.Span)
	}
	buf = AppendCall(buf, c)
	codecMetrics.BytesOut.Add(int64(len(buf)))
	return buf, nil
}

// DecodeCall deserializes a Call from the transport: 0xC1 opens the
// binary envelope, 0xC6 the traced one. Any other first byte is a
// decode error that names it — there is no second format to try.
func DecodeCall(data []byte) (*Call, error) {
	codecMetrics.BytesIn.Add(int64(len(data)))
	var c Call
	body, err := consumeEnvelope(data, verCall, verCallTraced, &c.Trace)
	if err == nil {
		body, err = ConsumeCall(body, &c)
	}
	if err != nil {
		return nil, fmt.Errorf("msg: decode call: %w", err)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("msg: decode call: %d trailing bytes", len(body))
	}
	return &c, nil
}

// consumeEnvelope strips an envelope's version byte — plain, or traced
// with the causal identity behind it, which lands in tr — and returns
// the bare body.
func consumeEnvelope(data []byte, plain, traced byte, tr *trace.Ref) (body []byte, err error) {
	if len(data) == 0 {
		return nil, errShort
	}
	switch data[0] {
	case plain:
		return data[1:], nil
	case traced:
		if tr.Trace, body, err = ConsumeUvarint(data[1:]); err == nil {
			tr.Span, body, err = ConsumeUvarint(body)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return body, nil
	}
	return nil, fmt.Errorf("unknown envelope version byte %#x", data[0])
}

// EncodeReply serializes a Reply for the transport. Unlike EncodeCall
// the result is NOT pooled: replies cross goroutines asynchronously
// (transport delivery, the last-call reply table), so no call site can
// prove release.
func EncodeReply(r *Reply) ([]byte, error) {
	buf := make([]byte, 0, 64+len(r.Results))
	if r.Trace.IsZero() {
		buf = append(buf, verReply)
	} else {
		buf = append(buf, verReplyTraced)
		buf = AppendUvarint(buf, r.Trace.Trace)
		buf = AppendUvarint(buf, r.Trace.Span)
	}
	buf = AppendReply(buf, r)
	codecMetrics.BytesOut.Add(int64(len(buf)))
	return buf, nil
}

// DecodeReply deserializes a Reply from the transport: 0xC2, or 0xC7
// traced, with the same single-format rule as DecodeCall.
func DecodeReply(data []byte) (*Reply, error) {
	codecMetrics.BytesIn.Add(int64(len(data)))
	var r Reply
	body, err := consumeEnvelope(data, verReply, verReplyTraced, &r.Trace)
	if err == nil {
		body, err = ConsumeReply(body, &r)
	}
	if err != nil {
		return nil, fmt.Errorf("msg: decode reply: %w", err)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("msg: decode reply: %d trailing bytes", len(body))
	}
	return &r, nil
}
