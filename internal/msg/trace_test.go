package msg

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/obs/trace"
)

func tracedCall() *Call {
	return &Call{
		ID: ids.CallID{
			Caller: ids.ComponentAddr{Machine: "evo1", Proc: 2, Comp: 3},
			Seq:    17,
		},
		Target:      ids.MakeURI("evo2", "shop", "Store"),
		Method:      "Search",
		Args:        []byte{1, 2, 3},
		NumArgs:     1,
		CallerType:  Persistent,
		CallerURI:   ids.MakeURI("evo1", "buyer", "Buyer"),
		ReadOnly:    true,
		KnowsServer: true,
		Trace:       trace.Ref{Trace: 0xABCD0001, Span: 7},
	}
}

func TestTracedCallRoundTrip(t *testing.T) {
	c := tracedCall()
	data, err := EncodeCall(c)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != envCall {
		t.Fatalf("traced call framed as %#x, want %#x", data[0], envCall)
	}
	got, err := DecodeCall(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestTracedReplyRoundTrip(t *testing.T) {
	r := &Reply{
		ID:             ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 1}, Seq: 5},
		Results:        []byte{9, 8},
		NumResults:     2,
		HasAttachment:  true,
		ServerType:     ReadOnly,
		MethodReadOnly: true,
		Trace:          trace.Ref{Trace: 0xABCD0001, Span: 9},
	}
	data, err := EncodeReply(r)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != envReply {
		t.Fatalf("traced reply framed as %#x, want %#x", data[0], envReply)
	}
	got, err := DecodeReply(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestUntracedEnvelopeZeroTrace: a call with a zero Trace encodes as
// c6 00 and its body, and the traced envelope is exactly the same body
// behind its trace field — there is one envelope per message.
func TestUntracedEnvelopeZeroTrace(t *testing.T) {
	c := tracedCall()
	traced, err := EncodeCall(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Trace = trace.Ref{}
	plain, err := EncodeCall(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(plain, []byte{0xC6, 0x00}) {
		t.Fatalf("untraced call opens % x, want c6 00", plain[:2])
	}
	var tr trace.Ref
	body, err := ConsumeTrace(traced[1:], &tr)
	if err != nil || tr != tracedCall().Trace {
		t.Fatalf("traced call's trace field = %v, %v", tr, err)
	}
	if !bytes.Equal(body, plain[2:]) {
		t.Error("traced call body differs from the untraced body")
	}
}

// TestRetiredEnvelopeBytes: 0xC1 and 0xC2, the untraced envelopes this
// codec no longer writes, fail to decode with an error naming the byte,
// as does a call envelope handed to the reply decoder.
func TestRetiredEnvelopeBytes(t *testing.T) {
	call, _ := EncodeCall(tracedCall())
	reply, _ := EncodeReply(&Reply{Results: []byte{1}, NumResults: 1})
	for _, tc := range []struct {
		data   []byte
		decode func([]byte) error
	}{
		{append([]byte{0xC1}, call[1:]...), func(b []byte) error { _, err := DecodeCall(b); return err }},
		{append([]byte{0xC2}, reply[1:]...), func(b []byte) error { _, err := DecodeReply(b); return err }},
		{call, func(b []byte) error { _, err := DecodeReply(b); return err }},
	} {
		want := fmt.Sprintf("version byte %#x", tc.data[0])
		if err := tc.decode(tc.data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decode of an envelope opening %#x = %v, want an error naming %s", tc.data[0], err, want)
		}
	}
}

// TestTraceFieldRoundTrip: the trace field is one zero byte for a zero
// Ref and a TraceID, SpanID pair otherwise, up to ten bytes each, and
// consumes back to the Ref it was given, leaving what follows.
func TestTraceFieldRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		tr   trace.Ref
		size int
	}{
		{trace.Ref{}, 1},
		{trace.Ref{Trace: 0xBEEF0001, Span: 2}, 6},
		{trace.Ref{Trace: math.MaxUint64, Span: math.MaxUint64}, 20},
	} {
		enc := AppendTrace(nil, tc.tr)
		if len(enc) != tc.size {
			t.Errorf("%v: %d-byte field, want %d", tc.tr, len(enc), tc.size)
		}
		var got trace.Ref
		rest, err := ConsumeTrace(append(enc, 0x5A), &got)
		if err != nil || got != tc.tr || !bytes.Equal(rest, []byte{0x5A}) {
			t.Errorf("%v: consumed %v, rest % x, err %v", tc.tr, got, rest, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := ConsumeTrace(enc[:cut], &got); err == nil {
				t.Errorf("%v: the field's first %d bytes consumed", tc.tr, cut)
			}
		}
	}
}

func TestTracedEnvelopeTruncation(t *testing.T) {
	call, _ := EncodeCall(tracedCall())
	for cut := 0; cut < len(call); cut++ {
		if _, err := DecodeCall(call[:cut]); err == nil && cut > 0 {
			t.Errorf("truncated traced call (%d bytes) decoded", cut)
		}
	}
	reply, _ := EncodeReply(&Reply{Results: []byte{1}, NumResults: 1,
		Trace: trace.Ref{Trace: 1, Span: 2}})
	for cut := 1; cut < len(reply); cut++ {
		if _, err := DecodeReply(reply[:cut]); err == nil {
			t.Errorf("truncated traced reply (%d bytes) decoded", cut)
		}
	}
}

// TestEncodeReplyBypassesPool is the regression gate on the ownership
// contract: EncodeReply's result is retained after return (the
// last-call reply table, async transport delivery), so it must never
// come from the scratch pool. Both encoders are measured the way a
// pooled contract would be used, the result released with FreeBuf: a
// warm pool then hands out buffers without allocating, so
// pooledEncodeReply, the forbidden version, reads 0, while a fresh
// result allocates on every call, in both framings.
func TestEncodeReplyBypassesPool(t *testing.T) {
	r := &Reply{Results: bytes.Repeat([]byte{0xAB}, 512), NumResults: 1}
	for _, tr := range []trace.Ref{{Trace: 3, Span: 4}, {}} {
		r.Trace = tr
		allocs := testing.AllocsPerRun(50, func() {
			data, err := EncodeReply(r)
			if err != nil {
				t.Fatal(err)
			}
			FreeBuf(data)
		})
		if allocs < 1 {
			t.Errorf("EncodeReply (trace %v) allocates %v objects/call; its result outlives the call and must be freshly allocated", tr, allocs)
		}
	}
	FreeBuf(pooledEncodeReply(r))
	if allocs := testing.AllocsPerRun(50, func() { FreeBuf(pooledEncodeReply(r)) }); allocs != 0 {
		t.Errorf("pooledEncodeReply allocates %v objects/call once warm, want 0: the test cannot tell a pooled reply from a fresh one", allocs)
	}
}

// pooledEncodeReply is the forbidden optimization spelled out: encode
// a reply into a pooled scratch buffer. TestPooledReplyWouldCorrupt
// shows why EncodeReply must not do this.
func pooledEncodeReply(r *Reply) []byte {
	buf, _ := appendReply(AppendTrace(append(GetBuf(), envReply), r.Trace), r)
	return buf
}

// TestPooledReplyWouldCorrupt demonstrates the failure mode the
// contract prevents: a retainer (the last-call reply table) keeps the
// encoded bytes, the pooled contract frees them, and the next encode
// scribbles over the retained view.
func TestPooledReplyWouldCorrupt(t *testing.T) {
	r := &Reply{Results: bytes.Repeat([]byte{0x5A}, 600), NumResults: 1}
	data := pooledEncodeReply(r)
	saved := append([]byte(nil), data...) // what the retainer expects to keep seeing
	FreeBuf(data)                         // the release a pooled contract would require

	// Churn the pool the way the call hot path does; any reuse of the
	// freed array rewrites the retained bytes in place.
	for i := 0; i < 100; i++ {
		other, err := EncodeCall(&Call{Method: "Clobber", Args: bytes.Repeat([]byte{0xFF}, 600), NumArgs: 1})
		if err != nil {
			t.Fatal(err)
		}
		corrupted := !bytes.Equal(data, saved)
		FreeBuf(other)
		if corrupted {
			return // hazard demonstrated: retained reply bytes changed under the reader
		}
	}
	t.Skip("pool never recycled the freed buffer in this run; hazard not observable")
}
