package msg

import (
	"bytes"
	"testing"

	"repro/internal/ids"
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
		if bin[0] != verCall {
			t.Fatalf("call %d: version byte %#x, want %#x", i, bin[0], verCall)
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
		if bin[0] != verReply {
			t.Fatalf("reply %d: version byte %#x, want %#x", i, bin[0], verReply)
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
// field — the strings in one backing copy, Args/Results in their own —
// so overwriting the input changes nothing. The TCP transport's
// per-connection buffer and the wal.Cursor block are both reused as
// soon as decode returns.
func TestDecodeNoAlias(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xee
		}
	}
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
	}
}

// TestAllocsDecodeCall gates the decode of a persistent→persistent
// envelope (four string fields and an argument list) at three
// allocations: the Call, the strings' one backing copy, Args.
func TestAllocsDecodeCall(t *testing.T) {
	data, err := EncodeCall(&codecCalls[1])
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeCall(data); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeCall allocates %v objects, gate 3", n)
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
