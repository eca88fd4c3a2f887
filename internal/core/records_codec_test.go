package core

import (
	"reflect"
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

// TestRecordCodecRoundTrip: every hot record kind must round-trip
// through the binary payload codec, and the legacy gob payload of the
// same value must decode to the identical struct (format parity).
func TestRecordCodecRoundTrip(t *testing.T) {
	for _, tc := range hotRecCases {
		name := recName(tc.t)
		bin, err := appendRecInto(nil, tc.t, tc.v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		wantVer := byte(recBinVer)
		if tv, ok := tc.v.(traceable); ok && !tv.traceRef().IsZero() {
			wantVer = recBinVerTraced
		}
		if bin[0] != wantVer || bin[1] != byte(tc.t) {
			t.Fatalf("%s: header % x, want %#x %#x", name, bin[:2], wantVer, byte(tc.t))
		}
		legacy, err := encodeRec(tc.v)
		if err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}

		fromBin := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
		if err := decodeRec(bin, fromBin); err != nil {
			t.Fatalf("%s: decode binary: %v", name, err)
		}
		fromGob := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
		if err := decodeRec(legacy, fromGob); err != nil {
			t.Fatalf("%s: decode legacy: %v", name, err)
		}
		if !recEqual(fromBin, tc.v) {
			t.Errorf("%s: binary round trip mismatch:\n  got  %+v\n  want %+v", name, fromBin, tc.v)
		}
		if !recEqual(fromBin, fromGob) {
			t.Errorf("%s: binary and legacy decodes differ:\n  bin %+v\n  gob %+v", name, fromBin, fromGob)
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
// traced and untraced, and for the gob payloads of pre-codec logs.
func TestRecCtxAgreesWithDecode(t *testing.T) {
	for _, tc := range hotRecCases {
		bin, err := appendRecInto(nil, tc.t, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := encodeRec(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		for format, payload := range map[string][]byte{"binary": bin, "gob": legacy} {
			got, err := recCtx(payload)
			if err != nil {
				t.Errorf("%s %s: recCtx: %v", recName(tc.t), format, err)
			}
			if want := recCtxOf(tc.v); got != want {
				t.Errorf("%s %s: recCtx = %d, record belongs to %d", recName(tc.t), format, got, want)
			}
		}
	}
	for _, bad := range [][]byte{nil, {recBinVer}, {recBinVer, byte(recIncoming)}, {recBinVerTraced, byte(recIncoming), 0x80}} {
		if _, err := recCtx(bad); err == nil {
			t.Errorf("recCtx(% x) succeeded on a truncated payload", bad)
		}
	}
}

// FuzzRecCtx: on any binary payload that decodes in full, recCtx
// succeeds and agrees; on anything else it fails cleanly.
func FuzzRecCtx(f *testing.F) {
	for _, tc := range hotRecCases {
		bin, err := appendRecInto(nil, tc.t, tc.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := recCtx(payload)
		if !binaryRec(payload) {
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
// distinction, which neither codec preserves.
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
	bin, err := appendRecInto(nil, recIncoming, &incomingRec{Ctx: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rs replySentRec
	if err := decodeRec(bin, &rs); err == nil {
		t.Fatal("incoming payload decoded into replySentRec")
	}
}

// TestMixedFormatRecovery: a log whose prefix was written by the
// legacy gob record codec, whose middle is untraced binary, and whose
// tail is traced binary must recover exactly — the upgrade scenario
// for logs that predate the codec and then predate tracing. The
// pre-trace phases are written by an untraced process, so their bytes
// are bit-for-bit what PR-5 produced.
func TestMixedFormatRecovery(t *testing.T) {
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

		// Phase 1: records in the legacy gob format (the pre-codec log).
		legacyRecEncoding = true
		for i := 0; i < 5; i++ {
			callInt(t, ref, "Add", 2)
		}
		// Phase 2: the binary format, appended to the same log.
		legacyRecEncoding = false
		for i := 0; i < 3; i++ {
			callInt(t, ref, "Add", 3)
		}
		p.Crash()

		before := obs.Default().Counter(obs.CodecLegacyDecodes).Load()
		p2, err := m.StartProcess("srv", cfg)
		if err != nil {
			t.Fatalf("%v: restart: %v", mode, err)
		}
		if !p2.Recovered() {
			t.Errorf("%v: restarted process did not recover", mode)
		}
		if got := callInt(t, ref, "Get"); got != 19 {
			t.Errorf("%v: recovered counter = %d, want 19", mode, got)
		}
		if got := callInt(t, ref, "Add", 1); got != 20 {
			t.Errorf("%v: post-recovery Add -> %d, want 20", mode, got)
		}
		if after := obs.Default().Counter(obs.CodecLegacyDecodes).Load(); after <= before {
			t.Errorf("%v: recovery of a mixed log did not count any legacy decodes", mode)
		}

		// Phase 3: crash again and restart with a flight recorder — the
		// tracing upgrade on the same log. Replay of the pre-trace
		// prefix is unchanged; new traffic appends 0xC4-framed traced
		// records alongside it.
		p2.Crash()
		cfgTraced := cfg
		cfgTraced.Trace = trace.NewRecorder(trace.Options{
			Name: "mixed", Metrics: obs.NewRegistry()})
		p3, err := m.StartProcess("srv", cfgTraced)
		if err != nil {
			t.Fatalf("%v: traced restart: %v", mode, err)
		}
		if got := callInt(t, ref, "Add", 5); got != 25 {
			t.Errorf("%v: traced Add -> %d, want 25", mode, got)
		}
		if got := callInt(t, ref, "Add", 5); got != 30 {
			t.Errorf("%v: traced Add -> %d, want 30", mode, got)
		}
		p3.Crash()

		// Final restart replays all three formats from one log — gob,
		// untraced binary, traced binary — back in an untraced process.
		before = obs.Default().Counter(obs.CodecLegacyDecodes).Load()
		p4, err := m.StartProcess("srv", cfg)
		if err != nil {
			t.Fatalf("%v: final restart: %v", mode, err)
		}
		if got := callInt(t, ref, "Get"); got != 30 {
			t.Errorf("%v: counter after three-format recovery = %d, want 30", mode, got)
		}
		if after := obs.Default().Counter(obs.CodecLegacyDecodes).Load(); after <= before {
			t.Errorf("%v: three-format recovery did not count any legacy decodes", mode)
		}
		p4.Close()

		// The closed log must actually hold traced frames (the phase-3
		// tail) next to the legacy ones just replayed.
		log, err := wal.Open(p4.LogDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		traced := 0
		if err := log.Scan(ids.NilLSN, func(rec wal.Record) error {
			if len(rec.Payload) > 0 && rec.Payload[0] == recBinVerTraced {
				traced++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		log.Close()
		if traced == 0 {
			t.Errorf("%v: no traced (0x%x) records in the mixed log", mode, recBinVerTraced)
		}
	}
}

// TestMixedFormatRecoveryCrossProcess runs the upgrade scenario across
// two processes, so outgoing-call and outgoing-reply records (messages
// 3-4) cross the format boundary too, then crashes the CLIENT — replay
// must consume legacy and binary outgoing-reply records alike.
func TestMixedFormatRecoveryCrossProcess(t *testing.T) {
	for _, mode := range []LogMode{LogBaseline, LogOptimized} {
		u := newTestUniverse(t)
		cfg := testConfig()
		cfg.LogMode = mode
		_, ps := startProc(t, u, "evo2", "srv", cfg)
		mc, pc := startProc(t, u, "evo1", "cli", cfg)
		hs, err := ps.Create("Server", &Counter{})
		if err != nil {
			t.Fatal(err)
		}
		hb, err := pc.Create("Batcher", &AllocBatcher{Server: NewRef(hs.URI())})
		if err != nil {
			t.Fatal(err)
		}
		ref := u.ExternalRef(hb.URI())

		// Counter.Add returns the running total, so the batcher's sum
		// after n calls is 1+2+…+n of the server's counter values.
		legacyRecEncoding = true
		if got := callInt(t, ref, "RunBatch", 4); got != 10 {
			t.Fatalf("%v: legacy batch sum = %d, want 10", mode, got)
		}
		legacyRecEncoding = false
		if got := callInt(t, ref, "RunBatch", 3); got != 28 {
			t.Fatalf("%v: binary batch sum = %d, want 28", mode, got)
		}
		pc.Crash()

		pc2, err := mc.StartProcess("cli", cfg)
		if err != nil {
			t.Fatalf("%v: restart: %v", mode, err)
		}
		if !pc2.Recovered() {
			t.Errorf("%v: restarted client did not recover", mode)
		}
		if got := callInt(t, ref, "RunBatch", 1); got != 36 {
			t.Errorf("%v: post-recovery batch sum = %d, want 36", mode, got)
		}
		pc2.Close()
		ps.Close()
	}
}
