package msg

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// Application types as the codec sees them: nested structs, pointers,
// maps, interface fields, arrays, named basic kinds, an unexported
// field that must not travel, and a type that contains itself.
type level int

type leaf struct {
	N int8
	S string
}

type tree struct {
	Leaf    leaf
	Ptr     *leaf
	NilPtr  *leaf
	ByName  map[string]leaf
	ByID    map[int32]string
	Any     any
	Anys    []any
	Str     fmt.Stringer
	Arr     [3]uint16
	Raw     []byte
	Leaves  []leaf
	F32     float32
	Level   level
	Next    *tree
	private int
}

func (l leaf) String() string { return l.S }

func init() {
	RegisterType(leaf{})
	RegisterType([]leaf(nil))
	RegisterType(&leaf{})
	RegisterType(tree{})
	RegisterType(level(0))
	RegisterType(map[level][]leaf(nil))
}

// sameValue is reflect.DeepEqual, except that floats compare by bits
// (NaN equals itself, -0 differs from +0).
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestValueRoundTrip: every closed-set type at its edges, and the
// registered shapes, come back as the same dynamic type and value. The
// one lossy rule — an empty slice or map decodes as nil — is the rows
// with a want.
func TestValueRoundTrip(t *testing.T) {
	l := leaf{N: -128, S: "x"}
	cases := []struct {
		name     string
		in, want any // want nil: same as in
	}{
		{"int min", math.MinInt, nil},
		{"int max", math.MaxInt, nil},
		{"int8 min", int8(math.MinInt8), nil},
		{"int8 max", int8(math.MaxInt8), nil},
		{"int16 min", int16(math.MinInt16), nil},
		{"int16 max", int16(math.MaxInt16), nil},
		{"int32 min", int32(math.MinInt32), nil},
		{"int32 max", int32(math.MaxInt32), nil},
		{"int64 min", int64(math.MinInt64), nil},
		{"int64 max", int64(math.MaxInt64), nil},
		{"uint max", uint(math.MaxUint), nil},
		{"uint8 max", uint8(math.MaxUint8), nil},
		{"uint16 max", uint16(math.MaxUint16), nil},
		{"uint32 max", uint32(math.MaxUint32), nil},
		{"uint64 max", uint64(math.MaxUint64), nil},
		{"zeroes", []any{0, int8(0), uint(0), 0.0, "", false}, nil},
		{"float32", float32(-1.5), nil},
		{"float32 NaN", float32(math.NaN()), nil},
		{"float64 NaN", math.NaN(), nil},
		{"float64 +Inf", math.Inf(1), nil},
		{"float64 -Inf", math.Inf(-1), nil},
		{"float64 -0", math.Copysign(0, -1), nil},
		{"float64 smallest", math.SmallestNonzeroFloat64, nil},
		{"string", "héllo\x00wörld", nil},
		{"bool", true, nil},
		{"bytes", []byte{0, 1, 255}, nil},
		{"bytes nil", []byte(nil), nil},
		{"bytes empty", []byte{}, []byte(nil)},
		{"strings", []string{"a", "", "c"}, nil},
		{"strings nil", []string(nil), nil},
		{"strings empty", []string{}, []string(nil)},
		{"ints", []int{math.MinInt, -1, 0, 1, math.MaxInt}, nil},
		{"ints empty", []int{}, []int(nil)},
		{"int64s", []int64{math.MinInt64, math.MaxInt64}, nil},
		{"int64s empty", []int64{}, []int64(nil)},
		{"float64s", []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 2.5}, nil},
		{"float64s empty", []float64{}, []float64(nil)},
		{"map string string", map[string]string{"k": "v", "": ""}, nil},
		{"map string string nil", map[string]string(nil), nil},
		{"map string string empty", map[string]string{}, map[string]string(nil)},
		{"map string int", map[string]int{"a": -1, "b": math.MaxInt}, nil},
		{"map string int empty", map[string]int{}, map[string]int(nil)},
		{"map string float64", map[string]float64{"pi": 3.14, "inf": math.Inf(1)}, nil},
		{"map string float64 empty", map[string]float64{}, map[string]float64(nil)},
		{"map string any", map[string]any{"n": 1, "s": "x", "nil": nil, "in": map[string]any{"d": 2.0}}, nil},
		{"map string any empty", map[string]any{}, map[string]any(nil)},
		{"anys", []any{1, "two", nil, []any{3.0, l}, []leaf{l}}, nil},
		{"anys empty", []any{}, []any(nil)},
		{"struct", l, nil},
		{"struct slice", []leaf{l, {}}, nil},
		{"struct slice empty", []leaf{}, []leaf(nil)},
		{"pointer", &l, nil},
		{"pointer nil", (*leaf)(nil), nil},
		{"named int", level(-3), nil},
		{"named-key map", map[level][]leaf{2: {l}, -1: nil}, nil},
		{"nested", tree{
			Leaf: l, Ptr: &leaf{N: 1}, ByName: map[string]leaf{"a": l, "b": {}},
			ByID: map[int32]string{-5: "neg", 5: "pos"}, Any: l, Anys: []any{int64(1), nil},
			Str: l, Arr: [3]uint16{1, 2, math.MaxUint16}, Raw: []byte("raw"), Leaves: []leaf{l},
			F32: 0.25, Level: 7, Next: &tree{Any: "tail"},
		}, nil},
		{"nested zero", tree{}, nil},
		{"nested empties", tree{ByName: map[string]leaf{}, Anys: []any{}, Raw: []byte{}, Leaves: []leaf{}}, tree{}},
	}
	for _, tc := range cases {
		data, err := EncodeAnySlice([]any{tc.in})
		if err != nil {
			t.Errorf("%s: encode: %v", tc.name, err)
			continue
		}
		got, err := DecodeAnySlice(data)
		if err != nil || len(got) != 1 {
			t.Errorf("%s: decode = %v, %v", tc.name, got, err)
			continue
		}
		want := tc.want
		if want == nil {
			want = tc.in
		}
		if !sameValue(got[0], want) {
			t.Errorf("%s: got %#v (%T), want %#v (%T)", tc.name, got[0], got[0], want, want)
		}
	}
}

// TestValueStreamGolden pins the wire bytes of a one-value list for
// every tag: a row that changes is a format change. Maps are written in
// ascending order of the encoded key, whose length prefix comes first,
// so in the rows marked "keys of two lengths" the shorter key "b" goes
// before "aa", which a string sort would put first.
func TestValueStreamGolden(t *testing.T) {
	rows := []struct {
		name string
		v    any
		hex  string
	}{
		{"0x00 nil in []any", []any{nil}, "01180100"},
		{"0x01 int", -300, "0101d704"},
		{"0x02 int8", int8(math.MinInt8), "0102ff01"},
		{"0x03 int16", int16(-300), "0103d704"},
		{"0x04 int32", int32(-70000), "0104dfc508"},
		{"0x05 int64", int64(math.MinInt64), "0105ffffffffffffffffff01"},
		{"0x06 uint", uint(300), "0106ac02"},
		{"0x07 uint8", uint8(math.MaxUint8), "0107ff01"},
		{"0x08 uint16", uint16(math.MaxUint16), "0108ffff03"},
		{"0x09 uint32", uint32(math.MaxUint32), "0109ffffffff0f"},
		{"0x0A uint64", uint64(math.MaxUint64), "010affffffffffffffffff01"},
		{"0x0B float32", float32(-1.5), "010b0000c0bf"},
		{"0x0C float64", math.Inf(-1), "010c000000000000f0ff"},
		{"0x0D string", "héllo", "010d0668c3a96c6c6f"},
		{"0x0E bool", true, "010e01"},
		{"0x0F []byte", []byte{0, 1, 255}, "010f030001ff"},
		{"0x10 []string", []string{"b", "aa", ""}, "011003016202616100"},
		{"0x10 []string empty", []string{}, "011000"},
		{"0x11 []int", []int{-1, 0, 300}, "0111030100d804"},
		{"0x12 []int64", []int64{math.MinInt64, math.MaxInt64}, "011202ffffffffffffffffff01feffffffffffffffff01"},
		{"0x13 []float64", []float64{2.5, math.Copysign(0, -1)}, "01130200000000000004400000000000000080"},
		{"0x13 []float64 nil", []float64(nil), "011300"},
		{"0x14 map[string]string", map[string]string{"k": "v", "a": ""}, "011402016100016b0176"},
		{"0x14 map[string]string keys of two lengths", map[string]string{"b": "x", "aa": "y"}, "011402016201780261610179"},
		{"0x15 map[string]int", map[string]int{"x": 1, "y": -2}, "011502017802017903"},
		{"0x15 map[string]int keys of two lengths", map[string]int{"b": 1, "aa": 2}, "01150201620202616104"},
		{"0x15 map[string]int empty", map[string]int{}, "011500"},
		{"0x16 map[string]float64", map[string]float64{"e": 2.75, "pi": 3.25}, "011602016500000000000006400270690000000000000a40"},
		{"0x17 map[string]any nested", map[string]any{"a": []any{1, nil, map[string]any{"d": 2.0}}, "b": leaf{N: 1, S: "s"}, "n": nil}, "01170301611803010200170101640c000000000000004001621917726570726f2f696e7465726e616c2f6d73672e6c65616602020173016e00"},
		{"0x17 map[string]any keys of two lengths", map[string]any{"in": map[string]any{"d": 2.0}, "n": 1, "nil": nil}, "011703016e010202696e170101640c0000000000000040036e696c00"},
		{"0x17 map[string]any nil", map[string]any(nil), "011700"},
		{"0x18 []any nested", []any{1, "two", nil, []any{3.0, leaf{N: -128, S: "x"}, []any{}}, []leaf{{N: 2}}, map[string]int{"k": 1}, []string{"z"}}, "01180701020d0374776f0018030c00000000000008401917726570726f2f696e7465726e616c2f6d73672e6c65616602ff0101781800190a5b5d6d73672e6c656166010204001501016b021001017a"},
		{"0x18 []any empty", []any{}, "011800"},
		{"0x19 registered struct with a map field", tree{
			ByName: map[string]leaf{"a": {N: 1}, "b": {S: "b"}}, ByID: map[int32]string{-5: "neg", 5: "pos"},
			Any: map[string]int{"b": 1, "c": 2}, Anys: []any{[]string{"s"}, nil}, Next: &tree{Level: 2},
		}, "011917726570726f2f696e7465726e616c2f6d73672e747265650e02000000000201610202000162020001620209036e65670a03706f731502016202016304021001017300000300000000000000000000010e02000000000000000000030000000000000000000400"},
	}
	for _, row := range rows {
		data, err := EncodeAnySlice([]any{row.v})
		if err != nil {
			t.Errorf("%s: encode: %v", row.name, err)
			continue
		}
		if got := fmt.Sprintf("%x", data); got != row.hex {
			t.Errorf("%s: encodes as\n\t%q\nwant\n\t%q", row.name, got, row.hex)
		}
		back, err := DecodeAnySlice(data)
		if err != nil {
			t.Errorf("%s: decode: %v", row.name, err)
			continue
		}
		if again, err := EncodeAnySlice(back); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: decode → encode gives %x, %v", row.name, again, err)
		}
	}
}

// TestOneBodyPerType: a closed-set composite has one body, the same at
// top level (behind its tag) and as a statically typed field of a
// registered struct (behind the field count).
func TestOneBodyPerType(t *testing.T) {
	type withStrings struct{ F []string }
	type withMap struct{ F map[string]int }
	type withAnys struct{ F []any }
	for _, holder := range []any{
		withStrings{[]string{"b", "aa", ""}},
		withMap{map[string]int{"b": 1, "aa": 2, "c": 3}},
		withAnys{[]any{1, "aa", []any{nil, map[string]any{"b": 1, "aa": 2}}}},
	} {
		RegisterType(holder)
		field := reflect.ValueOf(holder).Field(0).Interface()
		top, err := EncodeAnySlice([]any{field})
		if err != nil {
			t.Fatal(err)
		}
		nested, err := EncodeAnySlice([]any{holder})
		if err != nil {
			t.Fatal(err)
		}
		prefix := append(AppendString([]byte{1, tagNamed}, typeName(reflect.TypeOf(holder))), 1)
		if top, nested := top[2:], nested[len(prefix):]; !bytes.Equal(top, nested) {
			t.Errorf("%T: body %x at top level, %x as a field", field, top, nested)
		}
	}
}

// TestValueUnexportedFieldStaysHome: only exported fields travel.
func TestValueUnexportedFieldStaysHome(t *testing.T) {
	data, err := EncodeAnySlice([]any{tree{private: 9, Level: 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAnySlice(data)
	if err != nil {
		t.Fatal(err)
	}
	if tr := got[0].(tree); tr.private != 0 || tr.Level != 1 {
		t.Errorf("decoded %+v, want private 0 and Level 1", tr)
	}
}

// TestValueBytesDeterministic: equal values give equal bytes, whatever
// order a map was filled or iterated in.
func TestValueBytesDeterministic(t *testing.T) {
	build := func(reverse bool) []any {
		byName, byKey, anyMap, named := map[string]int{}, map[string]leaf{}, map[string]any{}, map[level][]leaf{}
		for i := 0; i < 100; i++ {
			k := i
			if reverse {
				k = 99 - i
			}
			key := fmt.Sprintf("key-%03d", k*37%100)
			byName[key] = k
			byKey[key] = leaf{N: int8(k), S: key}
			anyMap[key] = k
			named[level(k-50)] = []leaf{{S: key}}
		}
		return []any{byName, anyMap, tree{ByName: byKey}, named}
	}
	first, err := EncodeAnySlice(build(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := EncodeAnySlice(build(i%2 == 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding %d of an equal value differs from the first", i)
		}
	}
	if _, err := DecodeAnySlice(first); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestDecodeAnySliceRejects: malformed streams fail, and the error
// names what was wrong.
func TestDecodeAnySliceRejects(t *testing.T) {
	named := func(name string, body ...byte) []byte {
		return append(AppendString([]byte{1, tagNamed}, name), body...)
	}
	leafName := typeName(reflect.TypeOf(leaf{}))
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "short"},
		{"gob stream", []byte(gobAnys), ""},
		{"unknown tag", []byte{1, 0xEE}, "unknown value tag 0xee"},
		{"unregistered name", named("no.such/pkg.Type", 0), `"no.such/pkg.Type" is not registered`},
		{"field count mismatch", named(leafName, 3, 0, 0, 0), "3 fields on the wire"},
		{"string body for a struct", named(leafName, 5, 'h', 'e', 'l', 'l', 'o'), "5 fields on the wire"},
		{"value count beyond input", []byte{200, 1, tagInt, 0}, "count 200 exceeds"},
		{"slice count beyond input", []byte{1, tagStrings, 9, 0}, "count 9 exceeds"},
		{"float slice count beyond input", []byte{1, tagFloat64s, 2, 0, 0, 0, 0, 0, 0, 0, 0}, "count 2 exceeds"},
		{"string length beyond input", []byte{1, tagString, 5, 'a'}, "short"},
		{"name length beyond input", []byte{1, tagNamed, 9, 'a'}, "count 9 exceeds"},
		{"trailing byte", []byte{1, tagInt, 2, 0}, "1 trailing bytes"},
		{"top-level nil", []byte{1, tagNil}, "untyped nil"},
		{"bool byte", []byte{1, tagBool, 2}, "bool byte 0x2"},
		{"int8 overflow", []byte{1, tagInt8, 0x80, 0x02}, "overflows int8"},
		{"uint16 overflow", []byte{1, tagUint16, 0x80, 0x80, 0x04}, "overflows uint16"},
		{"struct field overflow", named(leafName, 2, 0x80, 0x02, 0), "overflows int8"},
		{"map keys out of order", []byte{1, tagMapStringInt, 2, 1, 'b', 0, 1, 'a', 0}, "ascending"},
		{"map key repeated", []byte{1, tagMapStringInt, 2, 1, 'a', 0, 1, 'a', 0}, "ascending"},
		{"map keys in string order", []byte{1, tagMapStringInt, 2, 2, 'a', 'a', 0, 1, 'b', 0}, "ascending"},
		{"truncated float", []byte{1, tagFloat64, 0, 0, 0}, "short"},
	}
	for _, tc := range cases {
		vals, err := DecodeAnySlice(tc.data)
		if err == nil {
			t.Errorf("%s: decoded %v, want an error", tc.name, vals)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// An array whose length differs from the registered type's fails
	// stop, like a struct whose field count does.
	bad := named(typeName(reflect.TypeOf(tree{})), 14, 2, 0, 0, 0, 0, 0, 0, tagNil, 0, tagNil, 2, 0, 0)
	if _, err := DecodeAnySlice(bad); err == nil || !strings.Contains(err.Error(), "2 elements on the wire") {
		t.Errorf("array length mismatch: %v", err)
	}
}

// TestDecodeAnySliceTruncated: no strict prefix of a valid stream
// decodes.
func TestDecodeAnySliceTruncated(t *testing.T) {
	data, err := EncodeAnySlice([]any{1, "two", 3.0, []string{"a"}, map[string]any{"k": []byte{1}},
		tree{Ptr: &leaf{S: "p"}, ByID: map[int32]string{1: "x"}, Any: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if vals, err := DecodeAnySlice(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded: %v", n, len(data), vals)
		}
	}
}

// TestDecodedValuesDoNotAlias: transport and WAL buffers are reused
// after decoding.
func TestDecodedValuesDoNotAlias(t *testing.T) {
	in := []any{"string", []byte("bytes"), []string{"elem"}, map[string]string{"key": "val"},
		tree{Raw: []byte("raw"), Leaf: leaf{S: "leaf"}, ByID: map[int32]string{1: "one"}}}
	data, err := EncodeAnySlice(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAnySlice(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("decoded values changed with the input buffer:\n got %#v\nwant %#v", got, in)
	}
}

func TestEncodeAnySliceRejects(t *testing.T) {
	type stranger struct{ X int }
	cycle := &tree{}
	cycle.Next = cycle
	cases := []struct {
		name string
		in   []any
		want string
	}{
		{"untyped nil", []any{1, nil}, "msg: value 1 is untyped nil; pass a typed zero value"},
		{"unregistered", []any{stranger{}}, "msg.stranger is not registered"},
		{"unregistered in a field", []any{tree{Any: stranger{}}}, "msg.stranger is not registered"},
		{"unregistered slice of registered", []any{[]*leaf{}}, "[]*msg.leaf is not registered"},
		{"cycle", []any{*cycle}, "cyclic"},
	}
	for _, tc := range cases {
		data, err := EncodeAnySlice(tc.in)
		if err == nil {
			t.Errorf("%s: encoded %d bytes, want an error", tc.name, len(data))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestEncodeAnySliceEmpty(t *testing.T) {
	for _, in := range [][]any{nil, {}} {
		data, err := EncodeAnySlice(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAnySlice(data)
		if err != nil || len(got) != 0 {
			t.Errorf("empty list round trip: %v %v", got, err)
		}
	}
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestRegisterTypePanics: a type the codec cannot carry is refused at
// registration, with the type and the path to the field in the message.
func TestRegisterTypePanics(t *testing.T) {
	type hidden struct{ a, b int }
	type holder struct {
		OK   int
		Deep []map[string]*struct{ Bad chan int }
	}
	cases := []struct {
		v    any
		want []string
	}{
		{holder{}, []string{"msg.holder", "Deep[][].Bad", "kind chan"}},
		{struct{ F func() }{}, []string{".F", "kind func"}},
		{struct{ P unsafe.Pointer }{}, []string{".P", "kind unsafe.Pointer"}},
		{struct{ C complex128 }{}, []string{".C", "kind complex128"}},
		{hidden{}, []string{"msg.hidden", "no exported fields"}},
		{struct{ H hidden }{}, []string{".H", "no exported fields"}},
		{struct{ M map[float64]int }{}, []string{".M", "map key kind float64"}},
		{struct{ M map[leaf]int }{}, []string{".M", "map key kind struct"}},
		{nil, []string{"RegisterType(nil)"}},
	}
	for _, tc := range cases {
		got := panicOf(func() { RegisterType(tc.v) })
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("RegisterType(%T) panicked with %q, want a mention of %q", tc.v, got, w)
			}
		}
	}
	// A refused registration leaves nothing behind.
	if _, err := EncodeAnySlice([]any{holder{}}); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("refused type encodes: %v", err)
	}
}

// TestRegisterTypeTwice: the same type again is a no-op; a second type
// under a taken name panics.
func TestRegisterTypeTwice(t *testing.T) {
	RegisterType(leaf{})
	RegisterType(leaf{S: "any value of the type"})
	first := func() any { type twin struct{ A int }; return twin{} }()
	second := func() any { type twin struct{ B string }; return twin{} }()
	RegisterType(first)
	if got := panicOf(func() { RegisterType(second) }); !strings.Contains(got, "already taken") || !strings.Contains(got, "twin") {
		t.Errorf("second type under one name: panic %q, want \"already taken\" naming twin", got)
	}
	// The first registration still works.
	data, err := EncodeAnySlice([]any{first})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeAnySlice(data); err != nil || !reflect.DeepEqual(got[0], first) {
		t.Errorf("round trip after the refused twin: %v %v", got, err)
	}
	// A closed-set type keeps its own tag.
	RegisterType([]string(nil))
	if data, err := EncodeAnySlice([]any{[]string{"a"}}); err != nil || data[1] != tagStrings {
		t.Errorf("[]string after RegisterType encodes as %x, %v", data, err)
	}
}

// TestValueListAllocs: a one-int list — the shape of most calls — costs
// one allocation each way: the output buffer, the []any. (A reader that
// escapes to the heap, or a per-message encoder, shows up here first.)
func TestValueListAllocs(t *testing.T) {
	vals := []any{42}
	data, err := EncodeAnySlice(vals)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { EncodeAnySlice(vals) }); n != 1 {
		t.Errorf("EncodeAnySlice([42]) allocates %v objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeAnySlice(data) }); n != 1 {
		t.Errorf("DecodeAnySlice([42]) allocates %v objects, want 1", n)
	}
}

// TestAllocsMapEncode: a map's entries are put in order inside the
// output buffer, so a sixteen-entry map costs the entries' offsets and
// one key and one value holder — not an allocation per key. (A captured
// map[string]float64 field, or a map in a value stream, takes this path.)
func TestAllocsMapEncode(t *testing.T) {
	m := make(map[string]int, 16)
	for i := 0; i < 16; i++ {
		m[fmt.Sprintf("key-%02d", i)] = i
	}
	p, err := PlanFor(reflect.TypeOf(m))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := p.Append(nil, reflect.ValueOf(m))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = p.Append(buf[:0], reflect.ValueOf(m)) }); n > 3 {
		t.Errorf("Plan.Append of a 16-entry map[string]int allocates %v objects, gate 3", n)
	}
}

// TestPlanFor: the typed-body surface — a plan is compiled once per
// type (registered or not), an uncarriable type is an error naming the
// field, Read replaces what its target held, and a body written under
// another layout is refused by signature.
func TestPlanFor(t *testing.T) {
	type row struct {
		Name string
		Tags map[string]int
		Next *row
	}
	p, err := PlanFor(reflect.TypeOf(row{}))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := PlanFor(reflect.TypeOf(row{})); again != p {
		t.Error("PlanFor compiled the same type twice")
	}
	if rp, _ := PlanFor(reflect.TypeOf(leaf{})); rp != namedPlan([]byte(typeName(reflect.TypeOf(leaf{})))) {
		t.Error("PlanFor of a registered type is not the registered plan")
	}
	if _, err := PlanFor(reflect.TypeOf(struct{ OK, F func() }{})); err == nil || !strings.Contains(err.Error(), ".OK: kind func") {
		t.Errorf("PlanFor(func field) = %v, want an error naming .OK", err)
	}

	want := row{Name: "a", Tags: map[string]int{"x": 1}, Next: &row{Name: "b"}}
	data, err := p.Append(nil, reflect.ValueOf(want))
	if err != nil {
		t.Fatal(err)
	}
	got := row{Name: "stale", Tags: map[string]int{"x": 9, "old": 2}, Next: &row{Next: &row{}}}
	if err := p.Read(data, reflect.ValueOf(&got).Elem()); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Read over a used value = %+v, %v; want %+v", got, err, want)
	}
	if err := p.Read(append(data, 0), reflect.ValueOf(&got).Elem()); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("Read with a trailing byte = %v", err)
	}

	type rowDrifted struct {
		Name string
		Tags map[string]uint // was int
		Next *rowDrifted
	}
	q, err := PlanFor(reflect.TypeOf(rowDrifted{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Read(data, reflect.ValueOf(new(rowDrifted)).Elem()); err == nil || !strings.Contains(err.Error(), "layout signature") {
		t.Errorf("Read under a drifted layout = %v, want a layout signature error", err)
	}
	for n := 0; n < len(data); n++ {
		if err := p.Read(data[:n], reflect.ValueOf(new(row)).Elem()); err == nil {
			t.Errorf("Read of a %d/%d-byte prefix succeeded", n, len(data))
		}
	}
}

// TestPlanForConcurrent: compilation, registration and lookups from
// many goroutines at once (run under -race) agree on one plan per type.
func TestPlanForConcurrent(t *testing.T) {
	type shared struct{ A []leaf }
	type named struct{ B map[string]shared }
	types := []reflect.Type{reflect.TypeOf(shared{}), reflect.TypeOf(named{}), reflect.TypeOf([]named(nil))}
	got := make([][]*Plan, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g == 0 {
				RegisterType(named{})
			}
			for _, typ := range types {
				p, err := PlanFor(typ)
				if err != nil {
					t.Error(err)
				}
				got[g] = append(got[g], p)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, p := range got[g] {
			// A registration swaps in a named copy of the root: same layout.
			if q := got[0][i]; p.typ != q.typ || p.sig != q.sig || p.elem != q.elem {
				t.Errorf("goroutine %d got another plan for %s", g, types[i])
			}
		}
	}
	if _, err := EncodeAnySlice([]any{named{}}); err != nil {
		t.Errorf("type registered during the race does not encode: %v", err)
	}
}
