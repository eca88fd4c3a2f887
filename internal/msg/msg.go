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
	// tracing is off). It rides the envelope's trace field, never the
	// bare body: a log record carries it in its own header.
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
	// call was untraced); it rides the envelope's trace field.
	Trace trace.Ref
}

// EncodeCall serializes a Call for the transport: the binary envelope
// of codec.go, in a pooled buffer. The caller owns the returned slice
// until it calls FreeBuf (callers that cannot prove release just skip
// FreeBuf; see pool.go).
func EncodeCall(c *Call) ([]byte, error) {
	buf := AppendTrace(append(GetBuf(), envCall), c.Trace)
	return appendCall(buf, c), nil
}

// DecodeCall deserializes a Call from the transport into a new Call
// (DecodeCallInto).
func DecodeCall(data []byte) (*Call, error) {
	c := new(Call)
	if err := DecodeCallInto(data, c); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeCallInto deserializes a Call from the transport into c, which it
// overwrites: 0xC6, the trace field, the body. Any other first byte is a
// decode error that names it — there is no second format to try.
func DecodeCallInto(data []byte, c *Call) error {
	*c = Call{}
	body, err := consumeEnvelope(data, envCall, &c.Trace)
	if err == nil {
		err = consumeCall(body, c)
	}
	if err != nil {
		return fmt.Errorf("msg: decode call: %w", err)
	}
	return nil
}

// consumeEnvelope strips an envelope's version byte, which must be
// ver, and its trace field, which lands in tr, and returns the bare
// body.
func consumeEnvelope(data []byte, ver byte, tr *trace.Ref) ([]byte, error) {
	if len(data) == 0 {
		return nil, errShort
	}
	if data[0] != ver {
		return nil, fmt.Errorf("unknown envelope version byte %#x", data[0])
	}
	return ConsumeTrace(data[1:], tr)
}

// EncodeReply is EncodeReplyView without the view.
func EncodeReply(r *Reply) ([]byte, error) {
	data, _ := EncodeReplyView(r)
	return data, nil
}

// EncodeReplyView serializes a Reply for the transport, and returns r's
// results as a capped view of the envelope (nil if none), which a
// last-call entry keeps. The envelope is NOT pooled: replies cross
// goroutines (transport delivery, the last-call table), so none is freed.
func EncodeReplyView(r *Reply) (data, results []byte) {
	data, at := appendReply(AppendTrace(append(make([]byte, 0, 64+len(r.Results)), envReply), r.Trace), r)
	if n := len(r.Results); n > 0 {
		results = data[at : at+n : at+n]
	}
	return data, results
}

// DecodeReply deserializes a Reply from the transport into a new Reply
// (DecodeReplyInto).
func DecodeReply(data []byte) (*Reply, error) {
	r := new(Reply)
	if err := DecodeReplyInto(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReplyInto deserializes a Reply from the transport into r, which
// it overwrites: 0xC7, the trace field, the body, with the same
// single-format rule as DecodeCall. A caller that owns r — Ref.Call's reply on its
// stack — decodes without a Reply of the decoder's.
func DecodeReplyInto(data []byte, r *Reply) error {
	*r = Reply{}
	body, err := consumeEnvelope(data, envReply, &r.Trace)
	if err == nil {
		err = consumeReply(body, r)
	}
	if err != nil {
		return fmt.Errorf("msg: decode reply: %w", err)
	}
	return nil
}
