package msg

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestComponentTypeString(t *testing.T) {
	cases := map[ComponentType]string{
		External:          "External",
		Persistent:        "Persistent",
		Subordinate:       "Subordinate",
		Functional:        "Functional",
		ReadOnly:          "ReadOnly",
		ComponentType(99): "ComponentType(99)",
	}
	for ct, want := range cases {
		if got := ct.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ct, got, want)
		}
	}
}

func TestStateless(t *testing.T) {
	if !Functional.Stateless() || !ReadOnly.Stateless() {
		t.Error("functional and read-only are stateless")
	}
	if Persistent.Stateless() || Subordinate.Stateless() || External.Stateless() {
		t.Error("persistent/subordinate/external are not stateless")
	}
}

func TestCallRoundTrip(t *testing.T) {
	c := &Call{
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
	}
	data, err := EncodeCall(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCall(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := &Reply{
		ID:             ids.CallID{Caller: ids.ComponentAddr{Machine: "m", Proc: 1, Comp: 1}, Seq: 5},
		Results:        []byte{9, 8},
		NumResults:     2,
		AppErr:         "boom",
		HasAttachment:  true,
		ServerType:     ReadOnly,
		MethodReadOnly: true,
	}
	data, err := EncodeReply(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReply(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestDecodeGarbage: a first byte that is not an envelope version byte
// — a gob stream included — is an error naming the byte.
func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeCall([]byte("not gob")); err == nil {
		t.Error("DecodeCall accepted garbage")
	}
	if _, err := DecodeReply([]byte{0xde, 0xad}); err == nil || !strings.Contains(err.Error(), "0xde") {
		t.Errorf("DecodeReply(0xde 0xad) = %v, want an error naming the byte", err)
	}
	old := gobOf(&Call{Method: "M"})
	if _, err := DecodeCall(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", old[0])) {
		t.Errorf("DecodeCall(gob stream) = %v, want an error naming byte %#x", err, old[0])
	}
}

type basket struct {
	Items []string
	Total float64
}

func TestEncodeDecodeValues(t *testing.T) {
	vals := []reflect.Value{
		reflect.ValueOf("recovery"),
		reflect.ValueOf(42),
		reflect.ValueOf(basket{Items: []string{"a", "b"}, Total: 9.5}),
		reflect.ValueOf([]int{1, 2, 3}),
		reflect.ValueOf(map[string]int{"x": 1}),
	}
	data, err := EncodeValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	types := []reflect.Type{
		reflect.TypeOf(""),
		reflect.TypeOf(0),
		reflect.TypeOf(basket{}),
		reflect.TypeOf([]int(nil)),
		reflect.TypeOf(map[string]int(nil)),
	}
	got, err := DecodeValues(data, types)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !reflect.DeepEqual(got[i].Interface(), vals[i].Interface()) {
			t.Errorf("value %d: got %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestEncodeValuesEmpty(t *testing.T) {
	data, err := EncodeValues(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeValues(data, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty round trip: %v %v", got, err)
	}
}

func TestDecodeValuesWrongType(t *testing.T) {
	data, err := EncodeValues([]reflect.Value{reflect.ValueOf("text")})
	if err != nil {
		t.Fatal(err)
	}
	// Decoding a string into a struct must fail, not panic.
	if _, err := DecodeValues(data, []reflect.Type{reflect.TypeOf(basket{})}); err == nil {
		t.Error("decoding string into struct succeeded")
	}
}

func TestDecodeValuesTruncated(t *testing.T) {
	data, err := EncodeValues([]reflect.Value{reflect.ValueOf(1), reflect.ValueOf(2)})
	if err != nil {
		t.Fatal(err)
	}
	types := []reflect.Type{reflect.TypeOf(0), reflect.TypeOf(0), reflect.TypeOf(0)}
	if _, err := DecodeValues(data, types); err == nil {
		t.Error("decoding 3 values from a 2-value stream succeeded")
	} else if !strings.Contains(err.Error(), "value 2") {
		t.Errorf("error should name the failing value: %v", err)
	}
}

// Property: string/int/float tuples always round-trip exactly.
func TestValuesRoundTripProperty(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		vals := []reflect.Value{
			reflect.ValueOf(s), reflect.ValueOf(i),
			reflect.ValueOf(fl), reflect.ValueOf(b),
		}
		data, err := EncodeValues(vals)
		if err != nil {
			return false
		}
		got, err := DecodeValues(data, []reflect.Type{
			reflect.TypeOf(""), reflect.TypeOf(int64(0)),
			reflect.TypeOf(float64(0)), reflect.TypeOf(false),
		})
		if err != nil {
			return false
		}
		return got[0].String() == s && got[1].Int() == i &&
			(got[2].Float() == fl || (fl != fl && got[2].Float() != got[2].Float())) &&
			got[3].Bool() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
