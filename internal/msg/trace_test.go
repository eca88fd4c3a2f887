package msg

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/obs"
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
	if data[0] != verCallTraced {
		t.Fatalf("traced call framed as %#x, want %#x", data[0], verCallTraced)
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
	if data[0] != verReplyTraced {
		t.Fatalf("traced reply framed as %#x, want %#x", data[0], verReplyTraced)
	}
	got, err := DecodeReply(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestUntracedEnvelopeUnchanged pins the trace elision: a zero Trace
// encodes to the 0xC1 envelope with no trace bytes, and the traced
// envelope is exactly the same body behind its header.
func TestUntracedEnvelopeUnchanged(t *testing.T) {
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
	if plain[0] != verCall {
		t.Fatalf("untraced call framed as %#x, want %#x", plain[0], verCall)
	}
	// Strip the traced header: version byte + two uvarints.
	body := traced[1:]
	var consumeErr error
	if _, body, consumeErr = ConsumeUvarint(body); consumeErr != nil {
		t.Fatal(consumeErr)
	}
	if _, body, consumeErr = ConsumeUvarint(body); consumeErr != nil {
		t.Fatal(consumeErr)
	}
	if !bytes.Equal(body, plain[1:]) {
		t.Error("traced call body differs from the untraced body")
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

// TestEncodeReplyBypassesPool is the regression gate on the PR-5
// ownership contract: EncodeReply's result is retained after return
// (the last-call reply table, async transport delivery), so it must
// never come from the scratch pool. If a future optimization pass
// switches it to GetBuf, the pool counters move and this fails.
func TestEncodeReplyBypassesPool(t *testing.T) {
	before := obs.Default().Snapshot()
	r := &Reply{Results: bytes.Repeat([]byte{0xAB}, 512), NumResults: 1,
		Trace: trace.Ref{Trace: 3, Span: 4}}
	for i := 0; i < 50; i++ {
		if _, err := EncodeReply(r); err != nil {
			t.Fatal(err)
		}
		r.Trace = trace.Ref{} // both framings must stay pool-free
	}
	delta := obs.Default().Snapshot().Diff(before)
	if hits, misses := delta.Counter(obs.CodecPoolHits), delta.Counter(obs.CodecPoolMisses); hits+misses != 0 {
		t.Fatalf("EncodeReply touched the scratch pool (%d hits, %d misses); its result outlives the call and must be freshly allocated", hits, misses)
	}
}

// pooledEncodeReply is the forbidden optimization spelled out: encode
// a reply into a pooled scratch buffer. TestPooledReplyWouldCorrupt
// shows why EncodeReply must not do this.
func pooledEncodeReply(r *Reply) []byte {
	buf := append(GetBuf(), verReply)
	return AppendReply(buf, r)
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
