package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// hotRecCases pairs each hot record kind with a representative value.
var hotRecCases = []struct {
	t wal.RecordType
	v any
}{
	{recIncoming, &incomingRec{Ctx: 3, Call: msg.Call{
		ID:     ids.CallID{Caller: ids.ComponentAddr{Machine: "evo1", Proc: 2, Comp: 5}, Seq: 9},
		Target: "phoenix://evo2/srv/Server", Method: "Add",
		Args: []byte{1, 2, 3}, NumArgs: 1,
		CallerType: msg.Persistent, CallerURI: "phoenix://evo1/cli/B",
		ReadOnly: false, KnowsServer: true,
	}}},
	{recReplySent, &replySentRec{Ctx: 4, CallID: ids.CallID{
		Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 1}, Seq: 100}}},
	{recReplyContent, &replyContentRec{Ctx: 5,
		CallID: ids.CallID{Caller: ids.ComponentAddr{Machine: "m"}, Seq: 2},
		Reply: msg.Reply{Results: []byte{7}, NumResults: 1, AppErr: "e",
			HasAttachment: true, ServerType: msg.Persistent}}},
	{recOutgoing, &outgoingRec{Ctx: 6, Call: msg.Call{Method: "M", NumArgs: 0}}},
	{recOutgoingReply, &outgoingReplyRec{Ctx: 7, Seq: 41,
		Reply: msg.Reply{Fault: "gone", MethodReadOnly: true}}},
	// Traced variants frame as recBinVerTraced; the trace rides the
	// header, and decode restores it into the embedded message too.
	{recIncoming, &incomingRec{Ctx: 8, Trace: trace.Ref{Trace: 0xAB00000001, Span: 7},
		Call: msg.Call{Method: "Add", Args: []byte{9}, NumArgs: 1,
			Trace: trace.Ref{Trace: 0xAB00000001, Span: 7}}}},
	{recReplySent, &replySentRec{Ctx: 9, Trace: trace.Ref{Trace: 0xCD00000002, Span: 11},
		CallID: ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 2, Comp: 3}, Seq: 5}}},
	{recOutgoingReply, &outgoingReplyRec{Ctx: 10, Seq: 42,
		Trace: trace.Ref{Trace: 0xEF00000003, Span: 13},
		Reply: msg.Reply{Results: []byte{4}, NumResults: 1,
			Trace: trace.Ref{Trace: 0xEF00000003, Span: 13}}}},
	{recReplyContent, &replyContentRec{Ctx: 11, Trace: trace.Ref{Trace: 0x1200000004, Span: 17},
		CallID: ids.CallID{Caller: ids.ComponentAddr{Machine: "m"}, Seq: 3},
		Reply: msg.Reply{Results: []byte{8}, NumResults: 1,
			Trace: trace.Ref{Trace: 0x1200000004, Span: 17}}}},
	{recOutgoing, &outgoingRec{Ctx: 300, Trace: trace.Ref{Trace: 0x3400000005, Span: 19},
		Call: msg.Call{Method: "M", Trace: trace.Ref{Trace: 0x3400000005, Span: 19}}}},
}

// encodeHot returns a hot record's binary payload.
func encodeHot(t testing.TB, v any) []byte {
	t.Helper()
	bin, err := v.(wal.PayloadEncoder).AppendPayload(nil)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	return bin
}

// TestRecordCodecRoundTrip: every hot record kind must round-trip
// through the binary payload codec, and a gob payload of the same
// value is an error naming its first byte — a hot kind has one format.
func TestRecordCodecRoundTrip(t *testing.T) {
	for _, tc := range hotRecCases {
		name := recName(tc.t)
		bin := encodeHot(t, tc.v)
		wantVer := byte(recBinVer)
		if tv, ok := tc.v.(traceable); ok && !tv.traceRef().IsZero() {
			wantVer = recBinVerTraced
		}
		if bin[0] != wantVer || bin[1] != byte(tc.t) {
			t.Fatalf("%s: header % x, want %#x %#x", name, bin[:2], wantVer, byte(tc.t))
		}
		got := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
		if err := decodeRec(bin, got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !recEqual(got, tc.v) {
			t.Errorf("%s: round trip mismatch:\n  got  %+v\n  want %+v", name, got, tc.v)
		}

		old, err := encodeRec(tc.v)
		if err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}
		names := fmt.Sprintf("version byte %#x", old[0])
		if err := decodeRec(old, got); err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("%s: decodeRec(gob payload) = %v, want an error naming %s", name, err, names)
		}
		if _, err := recCtx(old); err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("%s: recCtx(gob payload) = %v, want an error naming %s", name, err, names)
		}
	}
}

// hotRecFor returns a zero record struct of the kind a payload's frame
// type selects, or nil for a kind the binary codec does not cover.
func hotRecFor(t wal.RecordType) any {
	switch t {
	case recIncoming:
		return new(incomingRec)
	case recReplySent:
		return new(replySentRec)
	case recReplyContent:
		return new(replyContentRec)
	case recOutgoing:
		return new(outgoingRec)
	case recOutgoingReply:
		return new(outgoingReplyRec)
	}
	return nil
}

func recCtxOf(v any) ids.CompID {
	return ids.CompID(reflect.ValueOf(v).Elem().FieldByName("Ctx").Uint())
}

// TestRecCtxAgreesWithDecode: the index scan's peek at a record's owner
// must name the context a full decode finds, for all five hot kinds,
// traced and untraced.
func TestRecCtxAgreesWithDecode(t *testing.T) {
	for _, tc := range hotRecCases {
		got, err := recCtx(encodeHot(t, tc.v))
		if err != nil {
			t.Errorf("%s: recCtx: %v", recName(tc.t), err)
		}
		if want := recCtxOf(tc.v); got != want {
			t.Errorf("%s: recCtx = %d, record belongs to %d", recName(tc.t), got, want)
		}
	}
	for _, bad := range [][]byte{nil, {recBinVer}, {recBinVer, byte(recIncoming)}, {recBinVerTraced, byte(recIncoming), 0x80}} {
		if _, err := recCtx(bad); err == nil {
			t.Errorf("recCtx(% x) succeeded on a truncated payload", bad)
		}
	}
}

// FuzzRecCtx: recCtx accepts only payloads that open with a record
// version byte (the gob seeds must be rejected), and on any payload
// that decodes in full it succeeds and agrees.
func FuzzRecCtx(f *testing.F) {
	for _, tc := range hotRecCases {
		f.Add(encodeHot(f, tc.v))
		old, err := encodeRec(tc.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := recCtx(payload)
		if err == nil && payload[0] != recBinVer && payload[0] != recBinVerTraced {
			t.Fatalf("recCtx accepted a payload opening with %#x", payload[0])
		}
		if len(payload) < 2 {
			return
		}
		v := hotRecFor(wal.RecordType(payload[1]))
		if v == nil || decodeRec(payload, v) != nil {
			return
		}
		if err != nil {
			t.Fatalf("recCtx failed on a payload that decodes: %v", err)
		}
		if want := recCtxOf(v); got != want {
			t.Fatalf("recCtx = %d, decode says %d", got, want)
		}
	})
}

// recEqual is reflect.DeepEqual modulo the nil-versus-empty byte slice
// distinction, which the codec does not preserve.
func recEqual(a, b any) bool {
	norm := func(v any) any {
		switch r := v.(type) {
		case *incomingRec:
			c := *r
			c.Call.Args = append([]byte{}, c.Call.Args...)
			return &c
		case *outgoingRec:
			c := *r
			c.Call.Args = append([]byte{}, c.Call.Args...)
			return &c
		case *replyContentRec:
			c := *r
			c.Reply.Results = append([]byte{}, c.Reply.Results...)
			return &c
		case *outgoingReplyRec:
			c := *r
			c.Reply.Results = append([]byte{}, c.Reply.Results...)
			return &c
		}
		return v
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestRecordCodecKindMismatch: a binary payload whose kind byte does
// not match the struct the frame type selected must be rejected.
func TestRecordCodecKindMismatch(t *testing.T) {
	var rs replySentRec
	if err := decodeRec(encodeHot(t, &incomingRec{Ctx: 1}), &rs); err == nil {
		t.Fatal("incoming payload decoded into replySentRec")
	}
}

// TestTracedUntracedRecovery: one log whose head was written by an
// untraced process (0xC3 records) and whose tail by a traced one (0xC4
// records) must recover exactly, in a process of either kind.
func TestTracedUntracedRecovery(t *testing.T) {
	for _, mode := range []LogMode{LogBaseline, LogOptimized} {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.LogMode = mode
		m, p := startProc(t, u, "evo1", "srv", cfg)
		h, err := p.Create("Counter", &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		ref := u.ExternalRef(h.URI())
		for i := 0; i < 3; i++ {
			callInt(t, ref, "Add", 3)
		}
		p.Crash()

		// Restart with a flight recorder: replay of the untraced head,
		// then new traffic appends traced records behind it.
		cfgTraced := cfg
		cfgTraced.Trace = trace.NewRecorder(trace.Options{
			Name: "mixed", Metrics: obs.NewRegistry()})
		p2, err := m.StartProcess("srv", cfgTraced)
		if err != nil {
			t.Fatalf("%v: traced restart: %v", mode, err)
		}
		if !p2.Recovered() {
			t.Errorf("%v: restarted process did not recover", mode)
		}
		if got := callInt(t, ref, "Add", 5); got != 14 {
			t.Errorf("%v: traced Add -> %d, want 14", mode, got)
		}
		if got := callInt(t, ref, "Add", 5); got != 19 {
			t.Errorf("%v: traced Add -> %d, want 19", mode, got)
		}
		p2.Crash()

		// Back in an untraced process, both layouts replay from one log.
		p3, err := m.StartProcess("srv", cfg)
		if err != nil {
			t.Fatalf("%v: final restart: %v", mode, err)
		}
		if got := callInt(t, ref, "Get"); got != 19 {
			t.Errorf("%v: counter after two-layout recovery = %d, want 19", mode, got)
		}
		if err := p3.Close(); err != nil {
			t.Fatal(err)
		}

		// The closed log must actually hold both layouts.
		vers := map[byte]int{}
		log, err := wal.OpenSet(p3.LogDir(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range log.Shards() {
			if err := sh.Log.Scan(ids.NilLSN, func(rec wal.Record) error {
				if len(rec.Payload) > 0 {
					vers[rec.Payload[0]]++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		log.Close()
		if vers[recBinVer] == 0 || vers[recBinVerTraced] == 0 {
			t.Errorf("%v: log holds %d untraced and %d traced records, want both", mode, vers[recBinVer], vers[recBinVerTraced])
		}
	}
}
