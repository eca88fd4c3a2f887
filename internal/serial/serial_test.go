package serial

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
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
		F func() // gob cannot encode funcs
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
		// gob turns empty slices/maps into nil; normalize.
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

// TestStateCodec: the State encoding must round-trip, and a gob stream
// of the same State — any first byte but 0xC5 — is an error naming the
// byte.
func TestStateCodec(t *testing.T) {
	want := &State{
		TypeName: "serial.plain",
		Fields: []FieldState{
			{Name: "A", Kind: KindValue, Data: []byte{3, 4, 0, 42}},
			{Name: "R", Kind: KindRemoteRef, Data: []byte("phoenix://m/p/c")},
			{Name: "L", Kind: KindLocalRef, Data: []byte("7")},
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

	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(want); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeState(old.Bytes()); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", old.Bytes()[0])) {
		t.Errorf("DecodeState(gob stream) = %v, want an error naming byte %#x", err, old.Bytes()[0])
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
