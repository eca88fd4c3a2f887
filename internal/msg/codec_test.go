package msg

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/ids"
	"repro/internal/obs/trace"
)

var codecCalls = []Call{
	{},
	{
		ID:     ids.CallID{Caller: ids.ComponentAddr{Machine: "evo1", Proc: 7, Comp: 42}, Seq: 1 << 40},
		Target: "phoenix://evo2/srv/Server", Method: "Add",
		Args: []byte{0x03, 0x04, 0x00, 0x0e}, NumArgs: 2,
		CallerType: Persistent, CallerURI: "phoenix://evo1/cli/Batcher",
		ReadOnly: true, KnowsServer: true,
	},
	{
		ID:     ids.CallID{Seq: 0xffffffffffffffff},
		Method: string(make([]byte, 300)), // multi-byte varint length
		Args:   make([]byte, 1000),
	},
}

var codecReplies = []Reply{
	{},
	{
		ID:      ids.CallID{Caller: ids.ComponentAddr{Machine: "evo2", Proc: 3, Comp: 9}, Seq: 77},
		Results: []byte{9, 9, 9}, NumResults: 1,
		AppErr: "boom", Fault: "no such method",
		HasAttachment: true, ServerType: ReadOnly, MethodReadOnly: true,
	},
}

// TestCodecTableRoundTrip: the edge-case table (zero values, multi-byte
// varint lengths, every flag set) round-trips under its version byte.
func TestCodecTableRoundTrip(t *testing.T) {
	for i, want := range codecCalls {
		bin, err := EncodeCall(&want)
		if err != nil {
			t.Fatalf("call %d: encode: %v", i, err)
		}
		if bin[0] != envCall {
			t.Fatalf("call %d: version byte %#x, want %#x", i, bin[0], envCall)
		}
		got, err := DecodeCall(bin)
		if err != nil {
			t.Fatalf("call %d: decode: %v", i, err)
		}
		if !callEqual(got, &want) {
			t.Errorf("call %d: round trip mismatch:\n  got  %+v\n  want %+v", i, got, want)
		}
		FreeBuf(bin)
	}
	for i, want := range codecReplies {
		bin, err := EncodeReply(&want)
		if err != nil {
			t.Fatalf("reply %d: encode: %v", i, err)
		}
		if bin[0] != envReply {
			t.Fatalf("reply %d: version byte %#x, want %#x", i, bin[0], envReply)
		}
		got, err := DecodeReply(bin)
		if err != nil {
			t.Fatalf("reply %d: decode: %v", i, err)
		}
		if !replyEqual(got, &want) {
			t.Errorf("reply %d: round trip mismatch:\n  got  %+v\n  want %+v", i, got, want)
		}
	}
}

// TestEnvelopeGolden pins the wire bytes of a call (0xC6) and a reply
// (0xC7), untraced (a zero trace field, one byte) and traced: a diff
// here is a wire change, like one in TestValueStreamGolden.
func TestEnvelopeGolden(t *testing.T) {
	const body = "0465766f31072a8080808080201970686f656e69783a2f2f65766f322f7372762f53657276657203416464" +
		"040304000e02011a70686f656e69783a2f2f65766f312f636c692f4261746368657203"
	const replyBody = "0465766f3203094d030909090104626f6f6d0e6e6f2073756368206d6574686f640304"
	const traced = "8180bcf70b02" // uvarint 0xBEEF0001, uvarint 2
	tr := trace.Ref{Trace: 0xBEEF0001, Span: 2}
	c, r := codecCalls[1], codecReplies[1]
	cases := []struct {
		name string
		enc  func() ([]byte, error)
		want string
	}{
		{"call", func() ([]byte, error) { return EncodeCall(&c) }, "c600" + body},
		{"traced call", func() ([]byte, error) { c.Trace = tr; return EncodeCall(&c) }, "c6" + traced + body},
		{"reply", func() ([]byte, error) { return EncodeReply(&r) }, "c700" + replyBody},
		{"traced reply", func() ([]byte, error) { r.Trace = tr; return EncodeReply(&r) }, "c7" + traced + replyBody},
	}
	for _, tc := range cases {
		data, err := tc.enc()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(data); got != tc.want {
			t.Errorf("%s:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}

// callEqual compares treating nil and empty byte slices as equal (the
// codec collapses the distinction).
func callEqual(a, b *Call) bool {
	return a.ID == b.ID && a.Target == b.Target && a.Method == b.Method &&
		bytes.Equal(a.Args, b.Args) && a.NumArgs == b.NumArgs &&
		a.CallerType == b.CallerType && a.CallerURI == b.CallerURI &&
		a.ReadOnly == b.ReadOnly && a.KnowsServer == b.KnowsServer
}

func replyEqual(a, b *Reply) bool {
	return a.ID == b.ID && bytes.Equal(a.Results, b.Results) &&
		a.NumResults == b.NumResults && a.AppErr == b.AppErr && a.Fault == b.Fault &&
		a.HasAttachment == b.HasAttachment && a.ServerType == b.ServerType &&
		a.MethodReadOnly == b.MethodReadOnly
}

// TestDecodeNoAlias: a decoded envelope owns every string and byte
// field — all of them in one buffer of its own — so overwriting the
// input changes nothing. The TCP transport's per-connection buffer and
// the wal.Cursor block are both reused as soon as decode returns. And
// the buffer's value list cannot reach its strings: writing into
// Args/Results, or appending to them, leaves every string field as it
// was.
func TestDecodeNoAlias(t *testing.T) {
	grow := func(b []byte) { _ = append(b, 0xdd) } // in place, if b had room
	for i := range codecCalls {
		want := &codecCalls[i]
		data, err := EncodeCall(want)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeCall(data)
		if err != nil {
			t.Fatal(err)
		}
		scribble(data)
		if !callEqual(c, want) {
			t.Errorf("call %d aliases the input buffer:\n  got  %+v\n  want %+v", i, c, want)
		}
		scribble(c.Args)
		grow(c.Args)
		if c.ID.Caller.Machine != want.ID.Caller.Machine || c.Target != want.Target ||
			c.Method != want.Method || c.CallerURI != want.CallerURI {
			t.Errorf("call %d: writing Args reached its strings:\n  got  %+v\n  want %+v", i, c, want)
		}
	}
	for i := range codecReplies {
		want := &codecReplies[i]
		data, err := EncodeReply(want)
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeReply(data)
		if err != nil {
			t.Fatal(err)
		}
		scribble(data)
		if !replyEqual(r, want) {
			t.Errorf("reply %d aliases the input buffer:\n  got  %+v\n  want %+v", i, r, want)
		}
		scribble(r.Results)
		grow(r.Results)
		if r.ID.Caller.Machine != want.ID.Caller.Machine || r.AppErr != want.AppErr || r.Fault != want.Fault {
			t.Errorf("reply %d: writing Results reached its strings:\n  got  %+v\n  want %+v", i, r, want)
		}
	}
}

// TestAllocsDecodeCall gates the decode of a persistent→persistent
// envelope (four string fields and an argument list): DecodeCallInto a
// Call the caller owns, as the server's handler decodes, allocates only
// the one buffer its strings and Args share (2 with the strings' backing
// copy and Args apart); DecodeCall adds the Call when it escapes. Whole
// objects, so the gates have no headroom to give: one more allocation
// is a field copied on its own.
func TestAllocsDecodeCall(t *testing.T) {
	data, err := EncodeCall(&codecCalls[1])
	if err != nil {
		t.Fatal(err)
	}
	var c Call
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeCallInto(data, &c); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeCallInto allocates %v objects, gate 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeCall(data); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("DecodeCall allocates %v objects, gate 2", n)
	}
}

// TestAllocsEncodeReplyView gates the server's reply encoder: the
// envelope is its one allocation, and the results view it returns is a
// slice of that envelope, not a copy — it reads the results, and a
// write through it shows in the envelope.
func TestAllocsEncodeReplyView(t *testing.T) {
	r := codecReplies[1]
	if n := testing.AllocsPerRun(200, func() { EncodeReplyView(&r) }); n > 1 {
		t.Errorf("EncodeReplyView allocates %v objects, gate 1", n)
	}
	data, view := EncodeReplyView(&r)
	if !bytes.Equal(view, r.Results) || cap(view) != len(view) {
		t.Fatalf("view = %x (cap %d), want the results %x, capped", view, cap(view), r.Results)
	}
	if want, _ := EncodeReply(&r); !bytes.Equal(data, want) {
		t.Fatalf("EncodeReplyView's envelope %x differs from EncodeReply's %x", data, want)
	}
	view[0] ^= 0xFF
	var back Reply
	if err := DecodeReplyInto(data, &back); err == nil && bytes.Equal(back.Results, r.Results) {
		t.Error("a write through the view did not reach the envelope: the view is a copy")
	}
	if _, view := EncodeReplyView(&Reply{NumResults: 0}); view != nil {
		t.Errorf("a reply without results views %x, want nil", view)
	}
}

// TestAllocsDecodeReply gates the reply side: DecodeReplyInto a Reply
// the caller owns, as Universe.send decodes, allocates only the buffer
// the reply's strings and Results share (2 with the strings' backing
// copy and Results apart, and 3 with the Reply on the heap, as every
// caller had it); DecodeReply adds the Reply when it escapes.
func TestAllocsDecodeReply(t *testing.T) {
	data, err := EncodeReply(&codecReplies[1])
	if err != nil {
		t.Fatal(err)
	}
	var r Reply
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeReplyInto(data, &r); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeReplyInto allocates %v objects, gate 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeReply(data); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("DecodeReply allocates %v objects, gate 2", n)
	}
}

// TestPoolRoundTripAllocs: once the pool is warm, drawing a buffer and
// returning it allocates nothing — FreeBuf recycles the holder GetBuf
// emptied. (The collector may drop pooled items mid-run, so the check
// is on the average, which a holder per release would put at 1.)
func TestPoolRoundTripAllocs(t *testing.T) {
	FreeBuf(GetBuf())
	if n := testing.AllocsPerRun(1000, func() { FreeBuf(append(GetBuf(), 1, 2, 3)) }); n != 0 {
		t.Errorf("GetBuf/FreeBuf round trip allocates %v objects/run, want 0", n)
	}
}

// TestDecodeTruncated: every strict prefix of a valid envelope must
// error cleanly, never panic or succeed.
func TestDecodeTruncated(t *testing.T) {
	full, err := EncodeCall(&codecCalls[1])
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(full); n++ {
		if _, err := DecodeCall(full[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(full))
		}
	}
	fullR, err := EncodeReply(&codecReplies[1])
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(fullR); n++ {
		if _, err := DecodeReply(fullR[:n]); err == nil {
			t.Fatalf("reply decode of %d/%d-byte prefix succeeded", n, len(fullR))
		}
	}
}

// TestDecodeTrailing: bytes after a complete envelope are corruption,
// not padding.
func TestDecodeTrailing(t *testing.T) {
	data, err := EncodeCall(&codecCalls[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCall(append(data, 0x00)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}
