package serial

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// fakeRef is a stand-in for the runtime's remote proxy type.
type fakeRef struct {
	uri  ids.URI
	live bool // not serializable state, must not be captured
}

func (r *fakeRef) PhoenixURI() ids.URI { return r.uri }

// fakeLocal is a stand-in for a same-context subordinate handle.
type fakeLocal struct {
	id ids.CompID
}

func (r *fakeLocal) PhoenixLocalID() ids.CompID { return r.id }

type fakeResolver struct {
	remoteCalls []ids.URI
	localCalls  []ids.CompID
	failRemote  bool
}

func (f *fakeResolver) ResolveRemote(u ids.URI, t reflect.Type) (any, error) {
	if f.failRemote {
		return nil, fmt.Errorf("no such component %s", u)
	}
	f.remoteCalls = append(f.remoteCalls, u)
	return &fakeRef{uri: u, live: true}, nil
}

func (f *fakeResolver) ResolveLocal(id ids.CompID, t reflect.Type) (any, error) {
	f.localCalls = append(f.localCalls, id)
	return &fakeLocal{id: id}, nil
}

type basket struct {
	Items map[string]int
	Total float64

	Store  *fakeRef   // remote component reference
	Helper *fakeLocal // same-context subordinate reference

	Cache   []byte `phoenix:"-"` // explicitly transient
	scratch int    // unexported: transient
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	orig := &basket{
		Items:   map[string]int{"tp-book": 2, "recovery-book": 1},
		Total:   99.95,
		Store:   &fakeRef{uri: ids.MakeURI("evo2", "shop", "Store1"), live: true},
		Helper:  &fakeLocal{id: 7},
		Cache:   []byte("do not persist"),
		scratch: 42,
	}
	st, err := Capture(orig)
	if err != nil {
		t.Fatal(err)
	}
	if st.TypeName != "serial.basket" {
		t.Errorf("TypeName = %q", st.TypeName)
	}

	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}

	fresh := &basket{}
	res := &fakeResolver{}
	if err := Restore(fresh, st2, res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Items, orig.Items) || fresh.Total != orig.Total {
		t.Errorf("values not restored: %+v", fresh)
	}
	if fresh.Store == nil || fresh.Store.uri != orig.Store.uri {
		t.Errorf("remote ref not resolved: %+v", fresh.Store)
	}
	if fresh.Helper == nil || fresh.Helper.id != 7 {
		t.Errorf("local ref not resolved: %+v", fresh.Helper)
	}
	if fresh.Cache != nil {
		t.Error("phoenix:\"-\" field was persisted")
	}
	if fresh.scratch != 0 {
		t.Error("unexported field was persisted")
	}
	if len(res.remoteCalls) != 1 || res.remoteCalls[0] != orig.Store.uri {
		t.Errorf("resolver remote calls = %v", res.remoteCalls)
	}
	if len(res.localCalls) != 1 || res.localCalls[0] != 7 {
		t.Errorf("resolver local calls = %v", res.localCalls)
	}
}

func TestNilRefsRoundTrip(t *testing.T) {
	orig := &basket{Items: map[string]int{}}
	st, err := Capture(orig)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &basket{Store: &fakeRef{uri: "stale"}, Helper: &fakeLocal{id: 1}}
	if err := Restore(fresh, st, &fakeResolver{}); err != nil {
		t.Fatal(err)
	}
	if fresh.Store != nil || fresh.Helper != nil {
		t.Errorf("nil refs not restored as nil: %+v %+v", fresh.Store, fresh.Helper)
	}
}

// TestClosedSetCompositesInInterfaceFields: the value codec's composite
// types are what a method may return, so a component may keep one in an
// interface-typed field without registering anything.
func TestClosedSetCompositesInInterfaceFields(t *testing.T) {
	type holder struct {
		X    any
		Meta map[string]any
		Log  []any
	}
	orig := &holder{
		X: map[string]string{"k": "v"},
		Meta: map[string]any{
			"ints":   map[string]int{"a": 1},
			"floats": map[string]float64{"pi": 3.14},
			"nested": map[string]any{"deep": []any{1, "two"}},
		},
		Log: []any{[]any{"a", 2}, map[string]string{"x": "y"}, []string{"s"}, 7},
	}
	st, err := Capture(orig)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &holder{}
	if err := Restore(fresh, st2, nil); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(fresh, orig) {
		t.Errorf("restored %+v, want %+v", fresh, orig)
	}
}

func TestRestoreTypeMismatch(t *testing.T) {
	type other struct{ X int }
	st, err := Capture(&basket{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(&other{}, st, nil); err == nil {
		t.Error("restore into wrong type succeeded")
	}
}

func TestRestoreUnknownField(t *testing.T) {
	st := &State{TypeName: "serial.basket", Fields: []FieldState{
		{Name: "Vanished", Kind: KindValue, Data: nil},
	}}
	err := Restore(&basket{}, st, nil)
	if err == nil || !strings.Contains(err.Error(), "Vanished") {
		t.Errorf("err = %v, want unknown-field error naming Vanished", err)
	}
}

func TestRestoreRemoteRefNeedsResolver(t *testing.T) {
	st, err := Capture(&basket{Store: &fakeRef{uri: "phoenix://m/p/c"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(&basket{}, st, nil); err == nil {
		t.Error("restore of remote ref without resolver succeeded")
	}
}

func TestRestoreResolverFailurePropagates(t *testing.T) {
	st, err := Capture(&basket{Store: &fakeRef{uri: "phoenix://m/p/c"}})
	if err != nil {
		t.Fatal(err)
	}
	err = Restore(&basket{}, st, &fakeResolver{failRemote: true})
	if err == nil || !strings.Contains(err.Error(), "no such component") {
		t.Errorf("err = %v", err)
	}
}

func TestCaptureRejectsNonStructPointer(t *testing.T) {
	for _, obj := range []any{nil, 42, "s", &[]int{1}, (*basket)(nil)} {
		if _, err := Capture(obj); err == nil {
			t.Errorf("Capture(%T) succeeded", obj)
		}
	}
}

func TestRestoreRejectsNonStructPointer(t *testing.T) {
	if err := Restore(7, &State{}, nil); err == nil {
		t.Error("Restore(7) succeeded")
	}
}

func TestCaptureUnencodableField(t *testing.T) {
	type bad struct {
		F func() // no plan carries a func
	}
	if _, err := Capture(&bad{F: func() {}}); err == nil {
		t.Error("Capture of func field succeeded")
	}
}

func TestDecodeStateGarbage(t *testing.T) {
	if _, err := DecodeState([]byte("garbage")); err == nil {
		t.Error("DecodeState accepted garbage")
	}
}

func TestRestoreUnknownKind(t *testing.T) {
	st := &State{TypeName: "serial.basket", Fields: []FieldState{
		{Name: "Total", Kind: FieldKind(250)},
	}}
	if err := Restore(&basket{}, st, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: for components with only plain exported value fields,
// capture→encode→decode→restore reproduces the value exactly.
func TestPlainStateRoundTripProperty(t *testing.T) {
	type plain struct {
		A int64
		B string
		C []int32
		D map[string]bool
		E float64
	}
	f := func(a int64, b string, c []int32, d map[string]bool, e float64) bool {
		orig := &plain{A: a, B: b, C: c, D: d, E: e}
		st, err := Capture(orig)
		if err != nil {
			return false
		}
		data, err := st.Encode()
		if err != nil {
			return false
		}
		st2, err := DecodeState(data)
		if err != nil {
			return false
		}
		fresh := &plain{}
		if err := Restore(fresh, st2, nil); err != nil {
			return false
		}
		// Empty slices and maps come back nil; normalize.
		norm := func(p *plain) {
			if len(p.C) == 0 {
				p.C = nil
			}
			if len(p.D) == 0 {
				p.D = nil
			}
		}
		norm(orig)
		norm(fresh)
		if e != e { // NaN: compare bits apart
			return fresh.E != fresh.E && reflect.DeepEqual(
				&plain{A: orig.A, B: orig.B, C: orig.C, D: orig.D},
				&plain{A: fresh.A, B: fresh.B, C: fresh.C, D: fresh.D})
		}
		return reflect.DeepEqual(orig, fresh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// gobState is the encoding/gob stream of a State{TypeName:
// "serial.plain", Fields: [{A KindValue [3 4 0 42]}]}: the format 0xC5
// replaced, kept as bytes so that nothing here imports gob.
const gobState = "+\x7f\x03\x01\x01\x05State\x01\xff\x80\x00\x01\x02\x01\bTypeName\x01\f\x00\x01\x06Fields\x01\xff\x84\x00\x00\x00\"\xff\x83\x02\x01\x01\x13[]serial.FieldState\x01\xff\x84\x00\x01\xff\x82\x00\x003\xff\x81\x03\x01\x01\nFieldState\x01\xff\x82\x00\x01\x03\x01\x04Name\x01\f\x00\x01\x04Kind\x01\x06\x00\x01\x04Data\x01\n\x00\x00\x00\x1d\xff\x80\x01\fserial.plain\x01\x01\x01\x01A\x02\x04\x03\x04\x00*\x00\x00"

// TestStateCodec: the State encoding must round-trip, and a gob stream
// of the same State — any first byte but 0xC5 — is an error naming the
// byte.
func TestStateCodec(t *testing.T) {
	want := &State{
		TypeName: "serial.plain",
		Fields: []FieldState{
			{Name: "A", Kind: KindValue, Data: []byte{3, 4, 0, 42}},
			{Name: "R", Kind: KindRemoteRef, Data: []byte("phoenix://m/p/c")},
			{Name: "L", Kind: KindLocalRef, Data: []byte{7}},
			{Name: "N", Kind: KindNilRef},
		},
	}
	bin, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bin[0] != verState {
		t.Fatalf("version byte %#x, want %#x", bin[0], verState)
	}
	fromBin, err := DecodeState(bin)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeState([]byte(gobState)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", gobState[0])) {
		t.Errorf("DecodeState(gob stream) = %v, want an error naming byte %#x", err, gobState[0])
	}

	norm := func(s *State) {
		for i := range s.Fields {
			if len(s.Fields[i].Data) == 0 {
				s.Fields[i].Data = nil
			}
		}
	}
	norm(fromBin)
	norm(want)
	if !reflect.DeepEqual(fromBin, want) {
		t.Errorf("binary round trip mismatch:\n  got  %+v\n  want %+v", fromBin, want)
	}

	// Truncations must error cleanly, never panic.
	for n := 1; n < len(bin); n++ {
		if _, err := DecodeState(bin[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(bin))
		}
	}
}

// TestRestoreReplacesFields: restoring into an object that already
// holds values gives the saved state, not a merge of the two.
func TestRestoreReplacesFields(t *testing.T) {
	type shelf struct {
		Stock map[string]int
		Tags  []string
		Note  *string
		Keep  int `phoenix:"-"`
	}
	st, err := Capture(&shelf{Stock: map[string]int{"a": 1}, Tags: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	stale := "stale"
	obj := &shelf{Stock: map[string]int{"a": 9, "old": 2}, Tags: []string{"p", "q", "r"}, Note: &stale, Keep: 5}
	if err := Restore(obj, st, nil); err != nil {
		t.Fatal(err)
	}
	want := &shelf{Stock: map[string]int{"a": 1}, Tags: []string{"x"}, Keep: 5}
	if !reflect.DeepEqual(obj, want) {
		t.Errorf("restored over a used object: %+v, want %+v", obj, want)
	}
}

// TestSchemaDrift: a state whose field was captured from another type —
// or by the gob encoder this codec replaced — fails to restore with an
// error naming Type.Field; it is never a panic or a wrong value.
func TestSchemaDrift(t *testing.T) {
	type pair struct{ A, B string }
	cases := []struct {
		name         string
		saved, fresh any // both print as serial.drift
	}{
		{"int64 as uint64",
			func() any { type drift struct{ Field int64 }; return &drift{5} }(),
			func() any { type drift struct{ Field uint64 }; return &drift{} }()},
		{"int as string",
			func() any { type drift struct{ Field int }; return &drift{3} }(),
			func() any { type drift struct{ Field string }; return &drift{} }()},
		{"[]int32 as []int64",
			func() any { type drift struct{ Field []int32 }; return &drift{[]int32{1}} }(),
			func() any { type drift struct{ Field []int64 }; return &drift{} }()},
		{"struct lost a field",
			func() any { type drift struct{ Field pair }; return &drift{pair{"a", "b"}} }(),
			func() any { type drift struct{ Field struct{ A string } }; return &drift{} }()},
		{"struct fields swapped",
			func() any { type drift struct{ Field []pair }; return &drift{[]pair{{"a", "b"}}} }(),
			func() any { type drift struct{ Field []struct{ B, A string } }; return &drift{} }()},
		{"value as reference",
			func() any { type drift struct{ Field int }; return &drift{3} }(),
			func() any { type drift struct{ Field *fakeRef }; return &drift{} }()},
	}
	for _, tc := range cases {
		st, err := Capture(tc.saved)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := Restore(tc.fresh, st, &fakeResolver{}); err == nil || !strings.Contains(err.Error(), "serial.drift.Field") {
			t.Errorf("%s: Restore = %v, want an error naming serial.drift.Field", tc.name, err)
		}
	}

	// What the gob encoder left in Data for an int64 of 42 and for a
	// map[string]int{"k": 1}, and a few shorter things.
	type drift struct {
		Field int64
		Map   map[string]int
	}
	for _, data := range []string{
		"\x03\x04\x00\x54",
		"\x0e\xff\x85\x04\x01\x02\xff\x86\x00\x01\x0c\x01\x04\x00\x00\x07\xff\x86\x00\x01\x01\x6b\x02",
		"", "\x00",
	} {
		for _, name := range []string{"Field", "Map"} {
			st := &State{TypeName: "serial.drift", Fields: []FieldState{{Name: name, Kind: KindValue, Data: []byte(data)}}}
			if err := Restore(&drift{}, st, nil); err == nil || !strings.Contains(err.Error(), "serial.drift."+name) {
				t.Errorf("Restore(%s = %q) = %v, want an error naming serial.drift.%s", name, data, err, name)
			}
		}
	}
}

// fuzzComp has a field of every shape Restore handles.
type fuzzComp struct {
	N    int
	S    string
	L    []int32
	M    map[string]bool
	X    any
	Rows []struct {
		Title string
		Price float64
	}
	Next   *fuzzNode
	Store  *fakeRef
	Helper *fakeLocal
}

type fuzzNode struct {
	V    uint8
	Next *fuzzNode
}

func encodeStateOf(t testing.TB, obj any) []byte {
	t.Helper()
	st, err := Capture(obj)
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeState: decoding and restoring arbitrary bytes must be
// total, must not let a short input claim a large allocation, and
// whatever restores must capture to bytes that restore to the same.
func FuzzDecodeState(f *testing.F) {
	f.Add(encodeStateOf(f, &fuzzComp{}))
	f.Add(encodeStateOf(f, &fuzzComp{
		N: -7, S: "s", L: []int32{1, 2}, M: map[string]bool{"a": true, "b": false},
		X: map[string]any{"k": []any{1, "two", nil}},
		Rows: []struct {
			Title string
			Price float64
		}{{"tp", 9.5}},
		Next: &fuzzNode{V: 1, Next: &fuzzNode{}}, Store: &fakeRef{uri: "phoenix://m/p/c"}, Helper: &fakeLocal{id: 300},
	}))
	f.Add([]byte(gobState))
	f.Add([]byte{verState})
	f.Fuzz(func(t *testing.T, data []byte) {
		restore := func(data []byte) (*fuzzComp, error) {
			st, err := DecodeState(data)
			if err != nil {
				return nil, err
			}
			obj := new(fuzzComp)
			return obj, Restore(obj, st, &fakeResolver{})
		}
		// The fuzzing engine's own goroutines allocate too: take the
		// quietest of a few tries.
		bound := 2048 + 64*uint64(len(data))
		var obj *fuzzComp
		var err error
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3 && grew > bound; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			obj, err = restore(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Fatalf("restoring %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again := encodeStateOf(t, obj)
		back, err := restore(again)
		if err != nil {
			t.Fatalf("restore of a captured state failed: %v", err)
		}
		if third := encodeStateOf(t, back); !bytes.Equal(third, again) {
			t.Fatalf("restore → capture → restore changed the state:\n  %x\n  %x", again, third)
		}
	})
}
