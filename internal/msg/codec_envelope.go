package msg

import (
	"fmt"
	"unsafe"

	"repro/internal/ids"
)

// AppendCallID appends a call ID: the caller's machine name, process
// and component, then the sequence number — the layout every message
// and log record that names a call opens with.
func AppendCallID(dst []byte, id ids.CallID) []byte {
	dst = AppendString(dst, id.Caller.Machine)
	dst = AppendUvarint(dst, uint64(id.Caller.Proc))
	dst = AppendUvarint(dst, uint64(id.Caller.Comp))
	return AppendUvarint(dst, id.Seq)
}

// appendCall appends the bare binary body of c (no version byte) to
// dst and returns the extended slice: EncodeCall's body.
func appendCall(dst []byte, c *Call) []byte {
	dst = AppendCallID(dst, c.ID)
	dst = AppendString(dst, string(c.Target))
	dst = AppendString(dst, c.Method)
	dst = AppendBytes(dst, c.Args)
	dst = AppendUvarint(dst, uint64(c.NumArgs))
	dst = append(dst, byte(c.CallerType))
	dst = AppendString(dst, string(c.CallerURI))
	var flags byte
	if c.ReadOnly {
		flags |= 1
	}
	if c.KnowsServer {
		flags |= 2
	}
	return append(dst, flags)
}

// consumeCall decodes a bare Call body, all of data, into c. c never
// aliases data: its strings and Args share one new buffer (Fields.Own).
func consumeCall(data []byte, c *Call) error {
	f := ReadFields(data)
	str := [4][]byte{f.CallID(&c.ID), f.Span(), f.Span()} // Machine, Target, Method, CallerURI: views of data
	args := f.Span()
	c.NumArgs = int(f.Uvarint())
	c.CallerType = ComponentType(f.Byte())
	str[3] = f.Span()
	flags := f.Byte()
	c.ReadOnly, c.KnowsServer = flags&1 != 0, flags&2 != 0
	var own [4]string
	c.Args = f.Own(args, str[:], own[:])
	c.ID.Caller.Machine, c.Target, c.Method, c.CallerURI = own[0], ids.URI(own[1]), own[2], ids.URI(own[3])
	return f.End()
}

// appendReply appends the bare binary body of r (no version byte) to
// dst and returns the extended slice.
func appendReply(dst []byte, r *Reply) []byte {
	dst = AppendCallID(dst, r.ID)
	dst = AppendBytes(dst, r.Results)
	dst = AppendUvarint(dst, uint64(r.NumResults))
	dst = AppendString(dst, r.AppErr)
	dst = AppendString(dst, r.Fault)
	var flags byte
	if r.HasAttachment {
		flags |= 1
	}
	if r.MethodReadOnly {
		flags |= 2
	}
	dst = append(dst, flags)
	return append(dst, byte(r.ServerType))
}

// consumeReply decodes a bare Reply body, all of data, into r. r never
// aliases data, as in consumeCall.
func consumeReply(data []byte, r *Reply) error {
	f := ReadFields(data)
	str := [3][]byte{f.CallID(&r.ID)} // Machine, AppErr, Fault: views of data
	results := f.Span()
	r.NumResults = int(f.Uvarint())
	str[1], str[2] = f.Span(), f.Span()
	flags := f.Byte()
	r.HasAttachment, r.MethodReadOnly = flags&1 != 0, flags&2 != 0
	r.ServerType = ComponentType(f.Byte())
	var own [3]string
	r.Results = f.Own(results, str[:], own[:])
	r.ID.Caller.Machine, r.AppErr, r.Fault = own[0], own[1], own[2]
	return f.End()
}

// Fields reads a body field by field, in order, each a view of the
// input — the message decoders above and core's record decoder read
// with it. The first error sticks: every later read returns zero, and
// a decoder reads its fields straight through and checks once.
type Fields struct {
	data []byte
	err  error
}

// ReadFields returns a reader of data's fields.
func ReadFields(data []byte) Fields { return Fields{data: data} }

// Uvarint reads an unsigned varint.
func (f *Fields) Uvarint() uint64 {
	var v uint64
	if f.err == nil {
		v, f.data, f.err = ConsumeUvarint(f.data)
	}
	return v
}

// Span reads a length-prefixed field as a view of the input.
func (f *Fields) Span() []byte {
	var b []byte
	if f.err == nil {
		b, f.data, f.err = consumeSpan(f.data)
	}
	return b
}

// Byte reads one raw byte.
func (f *Fields) Byte() byte {
	var b byte
	if f.err == nil {
		b, f.data, f.err = ConsumeByte(f.data)
	}
	return b
}

// CallID reads a call ID (AppendCallID) into id, all but its machine
// name, which it returns as a view of the input for the caller to own.
func (f *Fields) CallID(id *ids.CallID) (machine []byte) {
	machine = f.Span()
	id.Caller.Proc = ids.ProcID(f.Uvarint())
	id.Caller.Comp = ids.CompID(f.Uvarint())
	id.Seq = f.Uvarint()
	return machine
}

// Err returns the first error.
func (f *Fields) Err() error { return f.err }

// End returns the first error or, if the input is not all read, one
// that counts the bytes left.
func (f *Fields) End() error {
	if f.err == nil && len(f.data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(f.data))
	}
	return f.err
}

// Own copies a decoded message's or log record's fields — spans read
// from the input — into one new buffer, the one allocation a decode
// makes (DESIGN §10 "Buffer ownership"); after an error it copies
// nothing. It returns the value list as a capped slice of the buffer,
// so an append to it reallocates instead of running into the strings,
// and sets out[i] to a view of span i's copy (bufString). An empty list
// comes back nil.
func (f *Fields) Own(vals []byte, spans [][]byte, out []string) []byte {
	if f.err != nil {
		return nil
	}
	n := len(vals)
	for _, sp := range spans {
		n += len(sp)
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	i := copy(b, vals)
	for k, sp := range spans {
		j := i + copy(b[i:], sp)
		out[k] = bufString(b[i:j])
		i = j
	}
	if len(vals) == 0 {
		return nil
	}
	return b[:len(vals):len(vals)]
}

// bufString returns b's bytes as a string without copying them — the
// package's one use of unsafe. It is sound under the invariant
// strings.Builder relies on: nothing writes b's bytes after the call.
// Own keeps it by handing out no slice of a string's region: b is a
// region of a buffer the decode has just made, and the only slice of
// that buffer that leaves the decode is the value list, which does not
// overlap it.
func bufString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
