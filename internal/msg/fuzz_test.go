package msg

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/internal/obs/trace"
)

// The encoding/gob streams of a Call, a Reply and the value list
// []any{42}: the formats this codec replaced, kept as bytes (nothing
// here imports gob) and shown to the decoders as input they must reject.
const (
	gobCall  = "\xff\x89\x7f\x03\x01\x01\x04Call\x01\xff\x80\x00\x01\n\x01\x02ID\x01\xff\x82\x00\x01\x06Target\x01\f\x00\x01\x06Method\x01\f\x00\x01\x04Args\x01\n\x00\x01\aNumArgs\x01\x04\x00\x01\nCallerType\x01\x06\x00\x01\tCallerURI\x01\f\x00\x01\bReadOnly\x01\x02\x00\x01\vKnowsServer\x01\x02\x00\x01\x05Trace\x01\xff\x86\x00\x00\x00(\xff\x81\x03\x01\x01\x06CallID\x01\xff\x82\x00\x01\x02\x01\x06Caller\x01\xff\x84\x00\x01\x03Seq\x01\x06\x00\x00\x009\xff\x83\x03\x01\x01\rComponentAddr\x01\xff\x84\x00\x01\x03\x01\aMachine\x01\f\x00\x01\x04Proc\x01\x06\x00\x01\x04Comp\x01\x06\x00\x00\x00$\xff\x85\x03\x01\x01\x03Ref\x01\xff\x86\x00\x01\x02\x01\x05Trace\x01\x06\x00\x01\x04Span\x01\x06\x00\x00\x00#\xff\x80\x01\x01\x00\x00\x01\x0fphoenix://m/p/c\x01\x01M\x01\x02\x01\x02\x01\x02\x05\x00\x00"
	gobReply = "\xff\x8a\xff\x87\x03\x01\x01\x05Reply\x01\xff\x88\x00\x01\t\x01\x02ID\x01\xff\x82\x00\x01\aResults\x01\n\x00\x01\nNumResults\x01\x04\x00\x01\x06AppErr\x01\f\x00\x01\x05Fault\x01\f\x00\x01\rHasAttachment\x01\x02\x00\x01\nServerType\x01\x06\x00\x01\x0eMethodReadOnly\x01\x02\x00\x01\x05Trace\x01\xff\x86\x00\x00\x00(\xff\x81\x03\x01\x01\x06CallID\x01\xff\x82\x00\x01\x02\x01\x06Caller\x01\xff\x84\x00\x01\x03Seq\x01\x06\x00\x00\x009\xff\x83\x03\x01\x01\rComponentAddr\x01\xff\x84\x00\x01\x03\x01\aMachine\x01\f\x00\x01\x04Proc\x01\x06\x00\x01\x04Comp\x01\x06\x00\x00\x00$\xff\x85\x03\x01\x01\x03Ref\x01\xff\x86\x00\x01\x02\x01\x05Trace\x01\x06\x00\x01\x04Span\x01\x06\x00\x00\x00\x11\xff\x88\x01\x01\x00\x00\x01\x01\t\x01\x02\x01\x01x\x05\x00\x00"
	gobAnys  = "\f\xff\x89\x02\x01\x02\xff\x8a\x00\x01\x10\x00\x00\f\xff\x8a\x00\x01\x03int\x04\x02\x00T"
)

// FuzzDecodeCall: arbitrary bytes must never panic the call decoder,
// only 0xC6 opens a call envelope, and whatever decodes
// must round-trip — after its input has been overwritten.
func FuzzDecodeCall(f *testing.F) {
	seed, _ := EncodeCall(&Call{
		ID:     ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 2}, Seq: 3},
		Target: "phoenix://m/p/c", Method: "M", Args: []byte{1, 2}, NumArgs: 1,
	})
	f.Add(seed)
	tracedSeed, _ := EncodeCall(&Call{
		ID:     ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 2}, Seq: 4},
		Target: "phoenix://m/p/c", Method: "M", Args: []byte{1, 2}, NumArgs: 1,
		Trace: trace.Ref{Trace: 0xBEEF0001, Span: 2},
	})
	f.Add(tracedSeed)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte(gobCall))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data) // the engine's input must not be written
		c, err := DecodeCall(in)
		if err != nil {
			return
		}
		if data[0] != envCall {
			t.Fatalf("decoded an envelope opening with %#x", data[0])
		}
		again, err := EncodeCall(c)
		if err != nil {
			t.Fatalf("re-encode of decoded call failed: %v", err)
		}
		scribble(in) // a decoded call owns its bytes: this changes nothing
		if back, err := DecodeCall(again); err != nil || !callEqual(back, c) || back.Trace != c.Trace {
			t.Fatalf("round trip mismatch (%v):\n  got  %+v\n  want %+v", err, back, c)
		}
	})
}

// scribble overwrites a decoder's input, as a transport or a log
// reader refills its buffer once the decode returns.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xee
	}
}

// FuzzDecodeReply mirrors FuzzDecodeCall for replies: only 0xC7 opens
// one.
func FuzzDecodeReply(f *testing.F) {
	seed, _ := EncodeReply(&Reply{Results: []byte{9}, NumResults: 1, AppErr: "x"})
	f.Add(seed)
	tracedSeed, _ := EncodeReply(&Reply{Results: []byte{9}, NumResults: 1,
		Trace: trace.Ref{Trace: 0xBEEF0001, Span: 3}})
	f.Add(tracedSeed)
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte(gobReply))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		r, err := DecodeReply(in)
		if err != nil {
			return
		}
		if data[0] != envReply {
			t.Fatalf("decoded an envelope opening with %#x", data[0])
		}
		again, err := EncodeReply(r)
		if err != nil {
			t.Fatalf("re-encode of decoded reply failed: %v", err)
		}
		scribble(in)
		if back, err := DecodeReply(again); err != nil || !replyEqual(back, r) || back.Trace != r.Trace {
			t.Fatalf("round trip mismatch (%v):\n  got  %+v\n  want %+v", err, back, r)
		}
	})
}

// FuzzDecodeAnySlice: the value stream decoder must be total, must not
// let a short input claim a large allocation, and whatever it accepts
// must re-encode to a stream that decodes to the same values.
func FuzzDecodeAnySlice(f *testing.F) {
	for _, vals := range [][]any{
		{1, "two", 3.0, true},
		{[]string{"a", "b"}, map[string]any{"k": []any{int8(1), nil}}, []byte{1, 2}},
		{tree{Ptr: &leaf{S: "p"}, ByID: map[int32]string{1: "x", 2: "y"}, Any: leaf{N: 1}, Next: &tree{}}, []leaf{{N: 2}}},
	} {
		seed, err := EncodeAnySlice(vals)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte("x"))
	f.Add([]byte(gobAnys))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzing engine's own goroutines allocate too: take the
		// quietest of a few tries.
		var vals []any
		var err error
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3 && grew > allocBound(data); try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			vals, err = DecodeAnySlice(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > allocBound(data) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for _, v := range vals {
			if v == nil {
				t.Fatal("decoder produced a nil value")
			}
		}
		again, err := EncodeAnySlice(vals)
		if err != nil {
			t.Fatalf("re-encode of decoded values failed: %v", err)
		}
		back, err := DecodeAnySlice(again)
		if err != nil {
			t.Fatalf("decode of re-encoded values failed: %v", err)
		}
		// Compared as bytes: NaN != NaN, but its encoding is.
		if third, err := EncodeAnySlice(back); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("decode → encode → decode changed the values (%v):\n  %x\n  %x", err, again, third)
		}
	})
}

// allocBound is what decoding data may allocate: a fixed part (the
// error, a registered value's box) plus a small multiple of the input.
// The worst honest ratio is a one-entry map per three bytes (a count,
// an empty key, a nil value): Go allocates a map's first eight slots at
// once, so a map[string]any nested in another costs ~380 B with the
// decoder's key and value holders, where a slice header or interface
// per byte would cost 64.
func allocBound(data []byte) uint64 { return 2048 + 160*uint64(len(data)) }
