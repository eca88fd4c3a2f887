package msg

import (
	"fmt"
	"math"
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
	old := []byte(gobCall)
	if _, err := DecodeCall(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", old[0])) {
		t.Errorf("DecodeCall(gob stream) = %v, want an error naming byte %#x", err, old[0])
	}
}

// Property: string/int/float tuples always round-trip exactly.
func TestValuesRoundTripProperty(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		data, err := EncodeAnySlice([]any{s, i, fl, b})
		if err != nil {
			return false
		}
		got, err := DecodeAnySlice(data)
		if err != nil || len(got) != 4 {
			return false
		}
		gf, _ := got[2].(float64)
		return got[0] == any(s) && got[1] == any(i) &&
			math.Float64bits(gf) == math.Float64bits(fl) && got[3] == any(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
