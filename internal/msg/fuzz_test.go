package msg

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/ids"
	"repro/internal/obs/trace"
)

// gobOf returns v as a gob stream: the envelope format this codec
// replaced, seeded into the decoder fuzzers as input they must reject.
func gobOf(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeCall: arbitrary bytes must never panic the call decoder,
// only the two version bytes open an envelope, and whatever decodes
// must round-trip.
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
	f.Add(gobOf(&Call{Target: "phoenix://m/p/c", Method: "M", Args: []byte{1, 2}, NumArgs: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCall(data)
		if err != nil {
			return
		}
		if data[0] != verCall && data[0] != verCallTraced {
			t.Fatalf("decoded an envelope opening with %#x", data[0])
		}
		again, err := EncodeCall(c)
		if err != nil {
			t.Fatalf("re-encode of decoded call failed: %v", err)
		}
		if back, err := DecodeCall(again); err != nil || !callEqual(back, c) || back.Trace != c.Trace {
			t.Fatalf("round trip mismatch (%v):\n  got  %+v\n  want %+v", err, back, c)
		}
	})
}

// FuzzDecodeReply mirrors FuzzDecodeCall for replies.
func FuzzDecodeReply(f *testing.F) {
	seed, _ := EncodeReply(&Reply{Results: []byte{9}, NumResults: 1, AppErr: "x"})
	f.Add(seed)
	tracedSeed, _ := EncodeReply(&Reply{Results: []byte{9}, NumResults: 1,
		Trace: trace.Ref{Trace: 0xBEEF0001, Span: 3}})
	f.Add(tracedSeed)
	f.Add([]byte{0xff, 0x00})
	f.Add(gobOf(&Reply{Results: []byte{9}, NumResults: 1, AppErr: "x"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReply(data)
		if err != nil {
			return
		}
		if data[0] != verReply && data[0] != verReplyTraced {
			t.Fatalf("decoded an envelope opening with %#x", data[0])
		}
		again, err := EncodeReply(r)
		if err != nil {
			t.Fatalf("re-encode of decoded reply failed: %v", err)
		}
		if back, err := DecodeReply(again); err != nil || !replyEqual(back, r) || back.Trace != r.Trace {
			t.Fatalf("round trip mismatch (%v):\n  got  %+v\n  want %+v", err, back, r)
		}
	})
}

// FuzzDecodeAnySlice: the argument stream decoder must be total.
func FuzzDecodeAnySlice(f *testing.F) {
	seed, _ := EncodeAnySlice([]any{1, "two", 3.0, true})
	f.Add(seed)
	f.Add([]byte("x"))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeAnySlice(data)
		if err != nil {
			return
		}
		for _, v := range vals {
			if v == nil {
				t.Fatal("decoder produced a nil value")
			}
		}
	})
}
