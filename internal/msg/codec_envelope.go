package msg

import (
	"unsafe"

	"repro/internal/ids"
)

// AppendCall appends the bare binary body of c (no version byte) to
// dst and returns the extended slice. Core's log records use it to
// embed calls inside their own framed payloads.
func AppendCall(dst []byte, c *Call) []byte {
	dst = AppendString(dst, c.ID.Caller.Machine)
	dst = AppendUvarint(dst, uint64(c.ID.Caller.Proc))
	dst = AppendUvarint(dst, uint64(c.ID.Caller.Comp))
	dst = AppendUvarint(dst, c.ID.Seq)
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

// ConsumeCall decodes a bare Call body from data into c and returns
// the unconsumed tail. c never aliases data: its strings and Args share
// one new buffer (ownFields).
func ConsumeCall(data []byte, c *Call) ([]byte, error) {
	var err error
	var u uint64
	var args []byte
	var str [4][]byte // Machine, Target, Method, CallerURI: views of data
	if str[0], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if u, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	c.ID.Caller.Proc = ids.ProcID(u)
	if u, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	c.ID.Caller.Comp = ids.CompID(u)
	if c.ID.Seq, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	if str[1], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if str[2], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if args, data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if u, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	c.NumArgs = int(u)
	var b byte
	if b, data, err = ConsumeByte(data); err != nil {
		return nil, err
	}
	c.CallerType = ComponentType(b)
	if str[3], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if b, data, err = ConsumeByte(data); err != nil {
		return nil, err
	}
	c.ReadOnly = b&1 != 0
	c.KnowsServer = b&2 != 0
	var own [4]string
	c.Args = ownFields(args, str[:], own[:])
	c.ID.Caller.Machine, c.Target, c.Method, c.CallerURI = own[0], ids.URI(own[1]), own[2], ids.URI(own[3])
	return data, nil
}

// ownFields copies a decoded message's fields — spans of the decoder's
// input — into one new buffer, the one allocation a decode makes
// (DESIGN §10 "Buffer ownership"). It returns the value list as a
// capped slice of the buffer, so an append to it reallocates instead of
// running into the strings, and sets out[i] to a view of span i's copy
// (bufString). An empty list comes back nil.
func ownFields(vals []byte, spans [][]byte, out []string) []byte {
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
// ownFields keeps it by handing out no slice of a string's region: b
// is a region of a buffer the decode has just made, and the only slice
// of that buffer that leaves the decode is the value list, which does
// not overlap it.
func bufString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// AppendReply appends the bare binary body of r (no version byte) to
// dst and returns the extended slice.
func AppendReply(dst []byte, r *Reply) []byte {
	dst = AppendString(dst, r.ID.Caller.Machine)
	dst = AppendUvarint(dst, uint64(r.ID.Caller.Proc))
	dst = AppendUvarint(dst, uint64(r.ID.Caller.Comp))
	dst = AppendUvarint(dst, r.ID.Seq)
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

// ConsumeReply decodes a bare Reply body from data into r and returns
// the unconsumed tail. r never aliases data, as in ConsumeCall.
func ConsumeReply(data []byte, r *Reply) ([]byte, error) {
	var err error
	var u uint64
	var results []byte
	var str [3][]byte // Machine, AppErr, Fault: views of data
	if str[0], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if u, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	r.ID.Caller.Proc = ids.ProcID(u)
	if u, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	r.ID.Caller.Comp = ids.CompID(u)
	if r.ID.Seq, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	if results, data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if u, data, err = ConsumeUvarint(data); err != nil {
		return nil, err
	}
	r.NumResults = int(u)
	if str[1], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	if str[2], data, err = consumeSpan(data); err != nil {
		return nil, err
	}
	var b byte
	if b, data, err = ConsumeByte(data); err != nil {
		return nil, err
	}
	r.HasAttachment = b&1 != 0
	r.MethodReadOnly = b&2 != 0
	if b, data, err = ConsumeByte(data); err != nil {
		return nil, err
	}
	r.ServerType = ComponentType(b)
	var own [3]string
	r.Results = ownFields(results, str[:], own[:])
	r.ID.Caller.Machine, r.AppErr, r.Fault = own[0], own[1], own[2]
	return data, nil
}
