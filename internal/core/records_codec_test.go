package core

import (
	"bytes"
	"encoding/hex"
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
	v record
}{
	{recIncoming, &incomingRec{Ctx: 3, Call: msg.Call{
		ID:     ids.CallID{Caller: ids.ComponentAddr{Machine: "evo1", Proc: 2, Comp: 5}, Seq: 9},
		Target: "phoenix://evo2/srv/Server", Method: "Add",
		Args: []byte{1, 2, 3}, NumArgs: 1,
		CallerType: msg.Persistent, CallerURI: "phoenix://evo1/cli/B",
		ReadOnly: false, KnowsServer: true,
	}}},
	{recReplySent, &replySentRec{Ctx: 4}},
	{recReplyContent, &replyContentRec{Ctx: 5,
		Reply: msg.Reply{ID: ids.CallID{Caller: ids.ComponentAddr{Machine: "m"}, Seq: 2},
			Results: []byte{7}, NumResults: 1, AppErr: "e",
			HasAttachment: true, ServerType: msg.Persistent}}},
	{recOutgoing, &outgoingRec{Ctx: 6, Call: msg.Call{Method: "M", NumArgs: 0}}},
	{recOutgoingReply, &outgoingReplyRec{Ctx: 7,
		Reply: msg.Reply{ID: ids.CallID{Seq: 41}, Fault: "gone", MethodReadOnly: true}}},
	// Traced variants: the trace rides the header's trace field, and
	// decode restores it into the embedded message too.
	{recIncoming, &incomingRec{Ctx: 8, Trace: trace.Ref{Trace: 0xAB00000001, Span: 7},
		Call: msg.Call{Method: "Add", Args: []byte{9}, NumArgs: 1,
			Trace: trace.Ref{Trace: 0xAB00000001, Span: 7}}}},
	{recReplySent, &replySentRec{Ctx: 9, Trace: trace.Ref{Trace: 0xCD00000002, Span: 11}}},
	{recOutgoingReply, &outgoingReplyRec{Ctx: 10,
		Trace: trace.Ref{Trace: 0xEF00000003, Span: 13},
		Reply: msg.Reply{ID: ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 10}, Seq: 42},
			Results: []byte{4}, NumResults: 1, AppErr: "e",
			Trace: trace.Ref{Trace: 0xEF00000003, Span: 13}}}},
	{recReplyContent, &replyContentRec{Ctx: 11, Trace: trace.Ref{Trace: 0x1200000004, Span: 17},
		Reply: msg.Reply{ID: ids.CallID{Caller: ids.ComponentAddr{Machine: "m"}, Seq: 3},
			Results: []byte{8}, NumResults: 1,
			Trace: trace.Ref{Trace: 0x1200000004, Span: 17}}}},
	{recOutgoing, &outgoingRec{Ctx: 300, Trace: trace.Ref{Trace: 0x3400000005, Span: 19},
		Call: msg.Call{Method: "M", Trace: trace.Ref{Trace: 0x3400000005, Span: 19}}}},
}

// encodeRec returns a record's payload.
func encodeRec(t testing.TB, v record) []byte {
	t.Helper()
	bin, err := v.AppendPayload(nil)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	return bin
}

// framed is a payload as a scan hands it over: under its frame type.
func framed(t wal.RecordType, payload []byte) wal.Record {
	return wal.Record{Type: t, Payload: payload}
}

// gobReplySent and gobCreation are the encoding/gob streams the parent
// format wrote for a replySentRec and a creationRec: kept as bytes so
// that the decoders can be shown to refuse them without importing gob.
const (
	gobReplySent = "9\xff\x87\x03\x01\x01\freplySentRec\x01\xff\x88\x00\x01\x03\x01\x03Ctx\x01\x06\x00\x01\x06CallID\x01\xff\x8a\x00\x01\x05Trace\x01\xff\x8e\x00\x00\x00(\xff\x89\x03\x01\x01\x06CallID\x01\xff\x8a\x00\x01\x02\x01\x06Caller\x01\xff\x8c\x00\x01\x03Seq\x01\x06\x00\x00\x009\xff\x8b\x03\x01\x01\rComponentAddr\x01\xff\x8c\x00\x01\x03\x01\aMachine\x01\f\x00\x01\x04Proc\x01\x06\x00\x01\x04Comp\x01\x06\x00\x00\x00$\xff\x8d\x03\x01\x01\x03Ref\x01\xff\x8e\x00\x01\x02\x01\x05Trace\x01\x06\x00\x01\x04Span\x01\x06\x00\x00\x00\x14\xff\x88\x01\x04\x01\x01\x01\x01m\x01\x01\x01\x01\x00\x01d\x00\x01\x00\x00"
	gobCreation  = "3\x7f\x03\x01\x01\vcreationRec\x01\xff\x80\x00\x01\x03\x01\x03Ctx\x01\x06\x00\x01\x03URI\x01\f\x00\x01\x05Comps\x01\xff\x86\x00\x00\x00 \xff\x85\x02\x01\x01\x11[]core.compRecord\x01\xff\x86\x00\x01\xff\x82\x00\x00U\xff\x81\x03\x01\x01\ncompRecord\x01\xff\x82\x00\x01\x06\x01\x02ID\x01\x06\x00\x01\x04Name\x01\f\x00\x01\x06GoType\x01\f\x00\x01\x04Type\x01\x06\x00\x01\tROMethods\x01\xff\x84\x00\x01\x05State\x01\n\x00\x00\x00\x16\xff\x83\x02\x01\x01\b[]string\x01\xff\x84\x00\x01\f\x00\x00,\xff\x80\x01\x03\x01\x0fphoenix://m/p/c\x01\x01\x01\x03\x01\x01c\x01\fcore.Counter\x00\x00"
)

// TestRecordCodecRoundTrip: every hot record kind must round-trip
// through the payload codec — the fields its layout keeps (recKept),
// every other field zero — into a record that owns all its strings
// and bytes, and a gob payload is an error naming its first byte — a
// kind has one format.
func TestRecordCodecRoundTrip(t *testing.T) {
	names := fmt.Sprintf("version byte %#x", gobReplySent[0])
	if err := decodeRec(framed(recReplySent, []byte(gobReplySent)), new(replySentRec)); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("decodeRec(gob payload) = %v, want an error naming %s", err, names)
	}
	if _, err := recCtx([]byte(gobReplySent)); err == nil || !strings.Contains(err.Error(), names) {
		t.Errorf("recCtx(gob payload) = %v, want an error naming %s", err, names)
	}
	for _, tc := range hotRecCases {
		name := recName(tc.t)
		bin := encodeRec(t, tc.v)
		_, ctx, tr := tc.v.head()
		if head := appendRecHeader(nil, ctx, tr); !bytes.HasPrefix(bin, head) || bin[0] != recVer {
			t.Fatalf("%s: payload opens % x, want the header % x", name, bin[:len(head)], head)
		}
		got := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface().(record)
		if err := decodeRec(framed(tc.t, bin), got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		want := recKept(tc.v)
		if !recEqual(got, want) {
			t.Errorf("%s: round trip mismatch:\n  got  %+v\n  want %+v", name, got, want)
		}
		// The payload was a view of a wal.Reader block, refilled by the
		// next read: a decoded record keeps none of it.
		for i := range bin {
			bin[i] = 0xee
		}
		if !recEqual(got, want) {
			t.Errorf("%s: decoded record aliases its payload:\n  got  %+v\n  want %+v", name, got, want)
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
			if !recEqual(got, want) {
				t.Errorf("%s: writing the value list reached other fields:\n  got  %+v\n  want %+v", name, got, want)
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

func recCtxOf(v record) ids.CompID {
	_, ctx, _ := v.head()
	return ctx
}

// TestRecCtxAgreesWithDecode: the recovery scans' peek at a record's owner
// must name the context a full decode finds, for all five hot kinds,
// traced and untraced.
func TestRecCtxAgreesWithDecode(t *testing.T) {
	for _, tc := range hotRecCases {
		got, err := recCtx(encodeRec(t, tc.v))
		if err != nil {
			t.Errorf("%s: recCtx: %v", recName(tc.t), err)
		}
		if want := recCtxOf(tc.v); got != want {
			t.Errorf("%s: recCtx = %d, record belongs to %d", recName(tc.t), got, want)
		}
	}
	for _, bad := range [][]byte{nil, {recVer}, {recVer, 3}, {recVer, 3, 0x80}, {recVer, 3, 1}} {
		if _, err := recCtx(bad); err == nil {
			t.Errorf("recCtx(% x) succeeded on a truncated payload", bad)
		}
	}
}

// TestMsgHeadAgreesWithDecode: Pass 1's read of a message record's
// owner, and of an incoming record's call ID behind it — it relies on
// appendCallBody laying the ID out first — must find what a full decode
// finds, and must refuse a truncated head.
func TestMsgHeadAgreesWithDecode(t *testing.T) {
	seen := false
	for _, tc := range hotRecCases {
		payload := encodeRec(t, tc.v)
		ir, ok := tc.v.(*incomingRec)
		if !ok {
			if ctx, id, err := msgHead(framed(tc.t, payload)); err != nil || ctx != recCtxOf(tc.v) || !id.IsZero() {
				t.Errorf("msgHead(%s) = context %d, call %v, err %v; want %d and no ID", recName(tc.t), ctx, id, err, recCtxOf(tc.v))
			}
			continue
		}
		seen = true
		ctx, id, err := msgHead(framed(recIncoming, payload))
		if err != nil || ctx != ir.Ctx || id != ir.Call.ID {
			t.Errorf("msgHead = context %d, call %v, err %v; the record holds %d, %v", ctx, id, err, ir.Ctx, ir.Call.ID)
		}
		for cut := 0; cut < 11; cut++ { // the shortest head here: 3 header bytes, 8 of call ID
			if _, _, err := msgHead(framed(recIncoming, payload[:cut])); err == nil {
				t.Errorf("msgHead succeeded on the first %d bytes", cut)
			}
		}
	}
	if !seen {
		t.Fatal("hotRecCases holds no incoming record")
	}
}

// FuzzRecCtx: recCtx accepts only payloads that open with the record
// version byte (the gob seed must be rejected), and on any payload
// that decodes in full under its frame type as a kind with an owner —
// not one of the four process-wide checkpoint kinds, whose structs
// name none — it succeeds and agrees.
func FuzzRecCtx(f *testing.F) {
	for _, tc := range hotRecCases {
		f.Add(byte(tc.t), encodeRec(f, tc.v))
	}
	f.Add(byte(recReplySent), []byte(gobReplySent))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		got, err := recCtx(payload)
		if err == nil && payload[0] != recVer {
			t.Fatalf("recCtx accepted a payload opening with %#x", payload[0])
		}
		k := wal.RecordType(kind)
		v := recFor(k)
		if v == nil || (k >= recBeginCkpt && k <= recEndCkpt) || decodeRec(framed(k, payload), v) != nil {
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

// recKept returns a copy of a hot record holding only what its layout
// keeps (records_codec.go): of a call its ID, method and arguments, of
// a reply-content record's reply its ID, results and error, of an
// outgoing reply the same with only the sequence number of its ID; the
// header's trace in both places. Any other record comes back as is.
func recKept(v record) record {
	call := func(c msg.Call) msg.Call {
		return msg.Call{ID: c.ID, Method: c.Method, Args: c.Args, NumArgs: c.NumArgs, Trace: c.Trace}
	}
	reply := func(r msg.Reply) msg.Reply {
		return msg.Reply{ID: r.ID, Results: r.Results, NumResults: r.NumResults, AppErr: r.AppErr, Trace: r.Trace}
	}
	switch r := v.(type) {
	case *incomingRec:
		return &incomingRec{Ctx: r.Ctx, Trace: r.Trace, Call: call(r.Call)}
	case *outgoingRec:
		return &outgoingRec{Ctx: r.Ctx, Trace: r.Trace, Call: call(r.Call)}
	case *replyContentRec:
		return &replyContentRec{Ctx: r.Ctx, Trace: r.Trace, Reply: reply(r.Reply)}
	case *outgoingReplyRec:
		k := &outgoingReplyRec{Ctx: r.Ctx, Trace: r.Trace, Reply: reply(r.Reply)}
		k.Reply.ID = ids.CallID{Seq: r.Reply.ID.Seq}
		return k
	}
	return v
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
	v record
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
		v record
	}{
		{recCreation, &creationRec{ctx: 3, URI: "phoenix://evo2/srv/Counter", Comps: comps}},
		{recCtxState, &ctxStateRec{ctx: 3, URI: "phoenix://evo2/srv/Counter", Comps: comps,
			LastOutSeq: 12, SubCounter: 1, LastCalls: lastCalls}},
		{recCkptCtxTable, &ckptCtxTableRec{Entries: []ckptCtxEntry{{Ctx: 3, RestartLSN: 512, ChainHead: 1500}, {Ctx: 9, RestartLSN: 1 << 40}, {Ctx: 11, RestartLSN: 2<<56 | 64, ChainHead: 1<<56 | 9000}}}},
		{recCkptLastCall, &ckptLastCallRec{Entries: lastCalls}},
		{recEndCkpt, &endCkptRec{BeginLSN: 2048}},
	}
}

// coldRecFor returns a zero record struct of a cold kind — any but the
// five hot ones, incoming … outgoing-reply — or nil for another kind.
// (Kinds are numbered creation, the five hot ones, context state, then
// the four checkpoint kinds.)
func coldRecFor(t wal.RecordType) record {
	if t >= recIncoming && t <= recOutgoingReply {
		return nil
	}
	return recFor(t)
}

// TestColdRecordRoundTrip: every cold record kind opens with the header
// the hot kinds open with, its trace field zero, and round-trips through
// its struct's plan; a begin-checkpoint record is that header and
// nothing else.
func TestColdRecordRoundTrip(t *testing.T) {
	for _, tc := range coldRecCases(t) {
		bin := encodeRec(t, tc.v)
		if head := appendRecHeader(nil, recCtxOf(tc.v), trace.Ref{}); !bytes.HasPrefix(bin, head) {
			t.Fatalf("%s: payload opens % x, want the header % x", recName(tc.t), bin[:len(head)], head)
		}
		got := coldRecFor(tc.t)
		if err := decodeRec(framed(tc.t, bin), got); err != nil {
			t.Fatalf("%s: decode: %v", recName(tc.t), err)
		}
		if !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: round trip mismatch:\n  got  %+v\n  want %+v", recName(tc.t), got, tc.v)
		}
	}
	if bin := encodeRec(t, &beginCkptRec{}); !reflect.DeepEqual(bin, []byte{recVer, 0, 0}) {
		t.Errorf("begin-checkpoint payload % x, want the bare header", bin)
	}
}

// TestRecordGolden pins one payload of each of the eleven kinds byte
// for byte, the five hot kinds untraced and traced (a cold kind's trace
// field is always zero): a diff here is a log-format change, as a diff
// in msg's TestEnvelopeGolden is a wire change. Each payload also
// decodes back under its frame type — into the fields its layout keeps:
// the input calls and replies set a target, a caller, flags and an
// attachment, and the decoded ones hold none of them.
func TestRecordGolden(t *testing.T) {
	tr := trace.Ref{Trace: 0xBEEF0001, Span: 2} // trace field 8180bcf70b 02
	id := ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 2}, Seq: 3}
	call := msg.Call{ID: id, Target: "t", Method: "Add", Args: []byte{0x03, 0x02}, NumArgs: 1,
		CallerType: msg.Persistent, CallerURI: "c", KnowsServer: true}
	tcall := call
	tcall.Trace = tr
	reply := msg.Reply{ID: id, Results: []byte{0x03, 0x04}, NumResults: 1, HasAttachment: true, ServerType: msg.Persistent}
	treply := reply
	treply.Trace = tr
	comps := []compRecord{{ID: 5, Name: "C", GoType: "core.Counter", Type: msg.Persistent, State: []byte{0xC5}}}
	const (
		// A call record: call ID, method, args, num args. A reply
		// record: its key (a reply-content record's call ID, an
		// outgoing reply's sequence number), results, num results,
		// app error.
		callID    = "016d010203"
		callBody  = callID + "03416464" + "020302" + "01"
		replyBody = "020304" + "01" + "00"
		traced    = "8180bcf70b02"
		// A cold body is its plan's layout: a 2-byte layout signature
		// and the field count, then the fields.
		creationComps = "01" + "06" + "05" + "0143" + "0c636f72652e436f756e746572" + "01" + "00" + "01c5"
		lastCall      = "04" + "03016d0102" + "03" + "40" + "05"
	)
	for _, tc := range []struct {
		name string
		t    wal.RecordType
		v    record
		want string
	}{
		{"incoming", recIncoming, &incomingRec{Ctx: 5, Call: call}, "c90500" + callBody},
		{"traced incoming", recIncoming, &incomingRec{Ctx: 5, Call: tcall, Trace: tr}, "c905" + traced + callBody},
		{"reply-sent", recReplySent, &replySentRec{Ctx: 5}, "c90500"},
		{"traced reply-sent", recReplySent, &replySentRec{Ctx: 5, Trace: tr}, "c905" + traced},
		{"reply-content", recReplyContent, &replyContentRec{Ctx: 5, Reply: reply}, "c90500" + callID + replyBody},
		{"traced reply-content", recReplyContent, &replyContentRec{Ctx: 5, Reply: treply, Trace: tr}, "c905" + traced + callID + replyBody},
		{"outgoing", recOutgoing, &outgoingRec{Ctx: 5, Call: call}, "c90500" + callBody},
		{"traced outgoing", recOutgoing, &outgoingRec{Ctx: 5, Call: tcall, Trace: tr}, "c905" + traced + callBody},
		{"outgoing-reply", recOutgoingReply, &outgoingReplyRec{Ctx: 5, Reply: reply}, "c90500" + "03" + replyBody},
		{"traced outgoing-reply", recOutgoingReply, &outgoingReplyRec{Ctx: 5, Reply: treply, Trace: tr}, "c905" + traced + "03" + replyBody},
		{"creation", recCreation, &creationRec{ctx: 5, URI: "u", Comps: comps}, "c90500" + "b8a902" + "0175" + creationComps},
		{"ctx-state", recCtxState, &ctxStateRec{ctx: 5, URI: "u", Comps: comps, LastOutSeq: 7, SubCounter: 1,
			LastCalls: []lastCallSaved{{Caller: id.Caller, Seq: 3, ReplyLSN: 64, Ctx: 5}}}, "c90500" + "018f05" + "0175" + creationComps + "0701" + "01" + lastCall},
		{"begin-ckpt", recBeginCkpt, &beginCkptRec{}, "c90000"},
		{"ckpt-ctx-table", recCkptCtxTable, &ckptCtxTableRec{Entries: []ckptCtxEntry{{Ctx: 5, RestartLSN: 16, ChainHead: 64}}}, "c90000" + "d03e01" + "0103051040"},
		{"ckpt-last-call", recCkptLastCall, &ckptLastCallRec{Entries: []lastCallSaved{{Caller: id.Caller, Seq: 3, ReplyLSN: 64, Ctx: 5}}}, "c90000" + "9f1901" + "01" + lastCall},
		{"end-ckpt", recEndCkpt, &endCkptRec{BeginLSN: 16}, "c90000" + "184801" + "10"},
	} {
		bin := encodeRec(t, tc.v)
		if got := hex.EncodeToString(bin); got != tc.want {
			t.Errorf("%s:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
		got := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface().(record)
		if err := decodeRec(framed(tc.t, bin), got); err != nil || !recEqual(got, recKept(tc.v)) {
			t.Errorf("%s: decoded to %+v (%v), want %+v", tc.name, got, err, recKept(tc.v))
		}
	}
}

// TestRecordCodecRejects: a payload that is not what the frame type
// promised fails to decode with an error that says what was found —
// for hot and cold kinds alike, and never by panicking.
func TestRecordCodecRejects(t *testing.T) {
	creation := encodeRec(t, coldRecCases(t)[0].v)
	incoming := encodeRec(t, &incomingRec{Ctx: 1})
	type endCkptDrifted struct{ BeginLSN int64 } // same bytes as endCkptRec, another layout
	drifted, err := msg.PlanFor(reflect.TypeOf(endCkptDrifted{}))
	if err != nil {
		t.Fatal(err)
	}
	driftedEnd, err := drifted.Append(appendRecHeader(nil, 0, trace.Ref{}), reflect.ValueOf(endCkptDrifted{2048}))
	if err != nil {
		t.Fatal(err)
	}
	// The retired headers: c3 <kind> <ctx> and c4 <kind> <trace> <ctx>.
	retired := func(ver byte, kind wal.RecordType, rest ...byte) []byte {
		return append([]byte{ver, byte(kind)}, rest...)
	}
	for _, tc := range []struct {
		name string
		rec  wal.Record
		into record
		want string
	}{
		{"hot kind into another hot struct", framed(recIncoming, incoming), new(replySentRec), "decode a incoming record as reply-sent"},
		{"cold kind into another cold struct", framed(recCreation, creation), new(ctxStateRec), "decode a creation record as ctx-state"},
		{"cold kind into a hot struct", framed(recCreation, creation), new(incomingRec), "decode a creation record as incoming"},
		{"hot kind into a cold struct", framed(recIncoming, incoming), new(creationRec), "decode a incoming record as creation"},
		{"frame type rewritten", framed(recCtxState, creation), new(ctxStateRec), "layout signature"},
		{"struct layout drifted", framed(recEndCkpt, driftedEnd), new(endCkptRec), "layout signature"},
		{"retired untraced header", framed(recIncoming, retired(0xC3, recIncoming, append([]byte{1}, incoming[3:]...)...)), new(incomingRec), "version byte 0xc3"},
		{"retired traced header", framed(recIncoming, retired(0xC4, recIncoming, append([]byte{1, 2, 1}, incoming[3:]...)...)), new(incomingRec), "version byte 0xc4"},
		{"retired cold header", framed(recCreation, retired(0xC3, recCreation, creation[1:]...)), new(creationRec), "version byte 0xc3"},
		// 0xC8 opened the layout that embedded wire bodies: its header was
		// today's, so only the version byte differs.
		{"retired 0xC8 hot header", framed(recIncoming, append([]byte{0xC8}, incoming[1:]...)), new(incomingRec), "version byte 0xc8"},
		{"retired 0xC8 cold header", framed(recCreation, append([]byte{0xC8}, creation[1:]...)), new(creationRec), "version byte 0xc8"},
		{"parent-format gob payload", framed(recCreation, []byte(gobCreation)), new(creationRec), fmt.Sprintf("version byte %#x", gobCreation[0])},
		{"empty payload", framed(recCreation, nil), new(creationRec), "empty"},
		{"header only", framed(recCreation, creation[:3]), new(creationRec), "short"},
		{"truncated", framed(recCreation, creation[:len(creation)-1]), new(creationRec), "short"},
		{"trailing byte", framed(recCreation, append(creation[:len(creation):len(creation)], 0)), new(creationRec), "trailing"},
		{"begin-checkpoint with a body", framed(recBeginCkpt, []byte{recVer, 0, 0, 1}), new(beginCkptRec), "1 trailing bytes"},
		// The call ID a reply-sent record carried under 0xC8: always zero.
		{"reply-sent with a body", framed(recReplySent, []byte{recVer, 1, 0, 0, 0, 0, 0}), new(replySentRec), "4 trailing bytes"},
	} {
		if err := decodeRec(tc.rec, tc.into); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeRec = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	for _, ver := range []byte{0xC3, 0xC4, 0xC8} {
		want := fmt.Sprintf("version byte %#x", ver)
		if _, err := recCtx(retired(ver, recIncoming, 1)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("recCtx of a %#x header = %v, want an error naming %s", ver, err, want)
		}
	}
}

// FuzzDecodeColdRec: decoding arbitrary bytes as each cold kind — the
// one the frame type names — must be total and must not let a short
// input claim a large allocation, and whatever decodes must re-encode
// to bytes that decode to the same.
func FuzzDecodeColdRec(f *testing.F) {
	for _, tc := range coldRecCases(f) {
		f.Add(byte(tc.t), encodeRec(f, tc.v))
	}
	f.Add(byte(recCreation), []byte(gobCreation))
	// Empty lists and an empty body, which the cases above never hold.
	f.Add(byte(recCtxState), encodeRec(f, &ctxStateRec{ctx: 1}))
	f.Add(byte(recBeginCkpt), encodeRec(f, &beginCkptRec{}))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		if coldRecFor(wal.RecordType(kind)) == nil {
			return
		}
		// The fuzzing engine's own goroutines allocate too: take the
		// quietest of a few tries.
		bound := 2048 + 64*uint64(len(payload))
		var v record
		var err error
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3 && grew > bound; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v = coldRecFor(wal.RecordType(kind))
			err = decodeRec(framed(wal.RecordType(kind), payload), v)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		again := encodeRec(t, v)
		back := coldRecFor(wal.RecordType(kind))
		if err := decodeRec(framed(wal.RecordType(kind), again), back); err != nil || !reflect.DeepEqual(back, v) {
			t.Fatalf("decode → encode → decode changed the record (%v):\n  %+v\n  %+v", err, v, back)
		}
	})
}

// TestTracedUntracedRecovery: one log whose head was written by an
// untraced process (zero trace fields) and whose tail by a traced one
// (nonzero trace fields) must recover exactly, in a process of either
// kind.
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

		// Back in an untraced process, both kinds of record replay from
		// one log.
		p3, err := m.StartProcess("srv", cfg)
		if err != nil {
			t.Fatalf("%v: final restart: %v", mode, err)
		}
		if got := callInt(t, ref, "Get"); got != 19 {
			t.Errorf("%v: counter after two-trace recovery = %d, want 19", mode, got)
		}
		if err := p3.Close(); err != nil {
			t.Fatal(err)
		}

		// The closed log must actually hold both zero and nonzero trace
		// fields, every record under the one header.
		var zero, traced int
		log, err := wal.OpenSet(p3.LogDir(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Scan(ids.NilLSN, func(rec wal.Record) error {
			_, tr, _, err := consumeRecHeader(rec.Payload)
			if err != nil {
				return err
			}
			if tr.IsZero() {
				zero++
			} else {
				traced++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		log.Close()
		if zero == 0 || traced == 0 {
			t.Errorf("%v: log holds %d untraced and %d traced records, want both", mode, zero, traced)
		}
	}
}
