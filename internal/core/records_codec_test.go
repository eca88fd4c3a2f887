package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serial"
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

// gobReplySent and gobCreation are the encoding/gob streams the parent
// format wrote for a replySentRec and a creationRec: kept as bytes so
// that the decoders can be shown to refuse them without importing gob.
const (
	gobReplySent = "9\xff\x87\x03\x01\x01\freplySentRec\x01\xff\x88\x00\x01\x03\x01\x03Ctx\x01\x06\x00\x01\x06CallID\x01\xff\x8a\x00\x01\x05Trace\x01\xff\x8e\x00\x00\x00(\xff\x89\x03\x01\x01\x06CallID\x01\xff\x8a\x00\x01\x02\x01\x06Caller\x01\xff\x8c\x00\x01\x03Seq\x01\x06\x00\x00\x009\xff\x8b\x03\x01\x01\rComponentAddr\x01\xff\x8c\x00\x01\x03\x01\aMachine\x01\f\x00\x01\x04Proc\x01\x06\x00\x01\x04Comp\x01\x06\x00\x00\x00$\xff\x8d\x03\x01\x01\x03Ref\x01\xff\x8e\x00\x01\x02\x01\x05Trace\x01\x06\x00\x01\x04Span\x01\x06\x00\x00\x00\x14\xff\x88\x01\x04\x01\x01\x01\x01m\x01\x01\x01\x01\x00\x01d\x00\x01\x00\x00"
	gobCreation  = "3\x7f\x03\x01\x01\vcreationRec\x01\xff\x80\x00\x01\x03\x01\x03Ctx\x01\x06\x00\x01\x03URI\x01\f\x00\x01\x05Comps\x01\xff\x86\x00\x00\x00 \xff\x85\x02\x01\x01\x11[]core.compRecord\x01\xff\x86\x00\x01\xff\x82\x00\x00U\xff\x81\x03\x01\x01\ncompRecord\x01\xff\x82\x00\x01\x06\x01\x02ID\x01\x06\x00\x01\x04Name\x01\f\x00\x01\x06GoType\x01\f\x00\x01\x04Type\x01\x06\x00\x01\tROMethods\x01\xff\x84\x00\x01\x05State\x01\n\x00\x00\x00\x16\xff\x83\x02\x01\x01\b[]string\x01\xff\x84\x00\x01\f\x00\x00,\xff\x80\x01\x03\x01\x0fphoenix://m/p/c\x01\x01\x01\x03\x01\x01c\x01\fcore.Counter\x00\x00"
)

// TestRecordCodecRoundTrip: every hot record kind must round-trip
// through the payload codec into a record that owns all its strings
// and bytes, and a gob payload is an error naming its
// first byte — a kind has one format.
func TestRecordCodecRoundTrip(t *testing.T) {
	names := fmt.Sprintf("version byte %#x", gobReplySent[0])
	if err := decodeRec([]byte(gobReplySent), new(replySentRec)); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("decodeRec(gob payload) = %v, want an error naming %s", err, names)
	}
	if _, err := recCtx([]byte(gobReplySent)); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("recCtx(gob payload) = %v, want an error naming %s", err, names)
	}
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
		// The payload was a view of a wal.Reader block, refilled by the
		// next read: a decoded record keeps none of it.
		for i := range bin {
			bin[i] = 0xee
		}
		if !recEqual(got, tc.v) {
			t.Errorf("%s: decoded record aliases its payload:\n  got  %+v\n  want %+v", name, got, tc.v)
		}
		// An embedded call's Args (a reply's Results) share one buffer
		// with its strings and cannot reach them: writing into the list
		// or appending to it changes no other field.
		if vals := recValues(got); vals.IsValid() && vals.Len() > 0 {
			kept := vals.Bytes()
			vals.SetBytes(append([]byte(nil), kept...))
			for i := range kept {
				kept[i] = 0xdd
			}
			_ = append(kept, 0xdd) // in place, if kept had room
			if !recEqual(got, tc.v) {
				t.Errorf("%s: writing the value list reached other fields:\n  got  %+v\n  want %+v", name, got, tc.v)
			}
		}
	}
}

// recValues returns the value list of a record's embedded call or
// reply (the zero Value for a record that embeds neither).
func recValues(rec any) reflect.Value {
	v := reflect.ValueOf(rec).Elem()
	if f := v.FieldByName("Call"); f.IsValid() {
		return f.FieldByName("Args")
	}
	if f := v.FieldByName("Reply"); f.IsValid() {
		return f.FieldByName("Results")
	}
	return reflect.Value{}
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

// TestRecCtxAgreesWithDecode: the recovery scans' peek at a record's owner
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

// TestMsgHeadAgreesWithDecode: Pass 1's read of a message record's
// owner, and of an incoming record's call ID behind it — it relies on
// msg.AppendCall laying the ID out first — must find what a full decode
// finds, and must refuse a kind other than the frame's and a truncated
// head.
func TestMsgHeadAgreesWithDecode(t *testing.T) {
	seen := false
	for _, tc := range hotRecCases {
		payload := encodeHot(t, tc.v)
		ctx, id, err := msgHead(recIncoming, payload)
		ir, ok := tc.v.(*incomingRec)
		if !ok {
			if err == nil {
				t.Errorf("msgHead(incoming) accepted a %s record", recName(tc.t))
			}
			if ctx, id, err := msgHead(tc.t, payload); err != nil || ctx != recCtxOf(tc.v) || !id.IsZero() {
				t.Errorf("msgHead(%s) = context %d, call %v, err %v; want %d and no ID", recName(tc.t), ctx, id, err, recCtxOf(tc.v))
			}
			continue
		}
		seen = true
		if err != nil || ctx != ir.Ctx || id != ir.Call.ID {
			t.Errorf("msgHead = context %d, call %v, err %v; the record holds %d, %v", ctx, id, err, ir.Ctx, ir.Call.ID)
		}
		for cut := 0; cut < 11; cut++ { // the shortest head here: 2 header bytes, context, 8 of call ID
			if _, _, err := msgHead(recIncoming, payload[:cut]); err == nil {
				t.Errorf("msgHead succeeded on the first %d bytes", cut)
			}
		}
	}
	if !seen {
		t.Fatal("hotRecCases holds no incoming record")
	}
}

// FuzzRecCtx: recCtx accepts only payloads that open with a record
// version byte (the gob seed must be rejected), and on any payload
// that decodes in full it succeeds and agrees.
func FuzzRecCtx(f *testing.F) {
	for _, tc := range hotRecCases {
		f.Add(encodeHot(f, tc.v))
	}
	f.Add([]byte(gobReplySent))
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

// coldRecCases pairs each cold record kind with a payload a running
// process could have written (the component state is a captured one).
func coldRecCases(t testing.TB) []struct {
	t wal.RecordType
	v any
} {
	st, err := serial.Capture(&Counter{N: 41})
	if err != nil {
		t.Fatal(err)
	}
	state, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	comps := []compRecord{
		{ID: 3, Name: "Counter", GoType: st.TypeName, Type: msg.Persistent, ROMethods: []string{"Get"}, State: state},
		{ID: 4, Name: "Counter/sub", GoType: st.TypeName, Type: msg.Subordinate, State: state},
	}
	lastCalls := []lastCallSaved{{Caller: ids.ComponentAddr{Machine: "evo1", Proc: 2, Comp: 5}, Seq: 9, ReplyLSN: 4096, Ctx: 3}}
	return []struct {
		t wal.RecordType
		v any
	}{
		{recCreation, &creationRec{Ctx: 3, URI: "phoenix://evo2/srv/Counter", Comps: comps}},
		{recCtxState, &ctxStateRec{Ctx: 3, URI: "phoenix://evo2/srv/Counter", Comps: comps,
			LastOutSeq: 12, SubCounter: 1, LastCalls: lastCalls}},
		{recCkptCtxTable, &ckptCtxTableRec{Entries: []ckptCtxEntry{{Ctx: 3, RestartLSN: 512, ChainHead: 1500}, {Ctx: 9, RestartLSN: 1 << 40}, {Ctx: 11, RestartLSN: 2<<56 | 64, ChainHead: 1<<56 | 9000}}}},
		{recCkptLastCall, &ckptLastCallRec{Entries: lastCalls}},
		{recEndCkpt, &endCkptRec{BeginLSN: 2048}},
	}
}

func encodeCold(t testing.TB, kind wal.RecordType, v any) []byte {
	t.Helper()
	bin, err := appendColdRec(nil, kind, 3, v)
	if err != nil {
		t.Fatalf("%s: encode: %v", recName(kind), err)
	}
	return bin
}

// TestColdRecordRoundTrip: every cold record kind opens with the header
// the hot kinds open with and round-trips through its struct's plan; a
// begin-checkpoint record is that header and nothing else.
func TestColdRecordRoundTrip(t *testing.T) {
	for _, tc := range coldRecCases(t) {
		bin := encodeCold(t, tc.t, tc.v)
		if bin[0] != recBinVer || bin[1] != byte(tc.t) {
			t.Fatalf("%s: header % x, want %#x %#x", recName(tc.t), bin[:2], recBinVer, byte(tc.t))
		}
		got := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
		if err := decodeRec(bin, got); err != nil {
			t.Fatalf("%s: decode: %v", recName(tc.t), err)
		}
		if !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: round trip mismatch:\n  got  %+v\n  want %+v", recName(tc.t), got, tc.v)
		}
	}
	if bin := encodeCold(t, recBeginCkpt, nil); !reflect.DeepEqual(bin, []byte{recBinVer, byte(recBeginCkpt), 3}) {
		t.Errorf("begin-checkpoint payload % x, want the bare header", bin)
	}
}

// TestRecordCodecRejects: a payload that is not what the frame type
// promised fails to decode with an error that says what was found —
// for hot and cold kinds alike, and never by panicking.
func TestRecordCodecRejects(t *testing.T) {
	creation := encodeCold(t, recCreation, coldRecCases(t)[0].v)
	type endCkptDrifted struct{ BeginLSN int64 } // same bytes as endCkptRec, another layout
	drifted, err := msg.PlanFor(reflect.TypeOf(endCkptDrifted{}))
	if err != nil {
		t.Fatal(err)
	}
	driftedEnd, err := drifted.Append([]byte{recBinVer, byte(recEndCkpt), 0}, reflect.ValueOf(endCkptDrifted{2048}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		into    any
		want    string
	}{
		{"hot kind into another hot struct", encodeHot(t, &incomingRec{Ctx: 1}), new(replySentRec), "payload kind incoming, want reply-sent"},
		{"cold kind into another cold struct", creation, new(ctxStateRec), "payload kind creation, want ctx-state"},
		{"cold kind into a hot struct", creation, new(incomingRec), "payload kind creation, want incoming"},
		{"hot kind into a cold struct", encodeHot(t, &incomingRec{Ctx: 1}), new(creationRec), "payload kind incoming, want creation"},
		{"kind byte rewritten", append([]byte{recBinVer, byte(recCtxState)}, creation[2:]...), new(ctxStateRec), "layout signature"},
		{"struct layout drifted", driftedEnd, new(endCkptRec), "layout signature"},
		{"parent-format gob payload", []byte(gobCreation), new(creationRec), fmt.Sprintf("version byte %#x", gobCreation[0])},
		{"header only", creation[:3], new(creationRec), "short"},
		{"truncated", creation[:len(creation)-1], new(creationRec), "short"},
		{"trailing byte", append(creation[:len(creation):len(creation)], 0), new(creationRec), "trailing"},
	} {
		if err := decodeRec(tc.payload, tc.into); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeRec = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeColdRec: decoding arbitrary bytes as each cold kind must be
// total and must not let a short input claim a large allocation, and
// whatever decodes must re-encode to bytes that decode to the same.
func FuzzDecodeColdRec(f *testing.F) {
	for _, tc := range coldRecCases(f) {
		f.Add(encodeCold(f, tc.t, tc.v))
	}
	f.Add([]byte(gobCreation))
	// Empty lists and an empty body, which the cases above never hold.
	f.Add(encodeCold(f, recCtxState, &ctxStateRec{Ctx: 1}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) < 2 {
			return
		}
		kind := wal.RecordType(payload[1])
		var typ reflect.Type
		for ct, k := range coldKinds {
			if k == kind {
				typ = ct
			}
		}
		if typ == nil {
			return
		}
		// The fuzzing engine's own goroutines allocate too: take the
		// quietest of a few tries.
		bound := 2048 + 64*uint64(len(payload))
		var v any
		var err error
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3 && grew > bound; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v = reflect.New(typ).Interface()
			err = decodeRec(payload, v)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		again := encodeCold(t, kind, v)
		back := reflect.New(typ).Interface()
		if err := decodeRec(again, back); err != nil || !reflect.DeepEqual(back, v) {
			t.Fatalf("decode → encode → decode changed the record (%v):\n  %+v\n  %+v", err, v, back)
		}
	})
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
		if err := log.Scan(ids.NilLSN, func(rec wal.Record) error {
			if len(rec.Payload) > 0 {
				vers[rec.Payload[0]]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		log.Close()
		if vers[recBinVer] == 0 || vers[recBinVerTraced] == 0 {
			t.Errorf("%v: log holds %d untraced and %d traced records, want both", mode, vers[recBinVer], vers[recBinVerTraced])
		}
	}
}
