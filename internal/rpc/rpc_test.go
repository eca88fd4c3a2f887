package rpc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/msg"
)

type Book struct {
	Title string
	Price float64
}

func init() { msg.RegisterType(Book{}); msg.RegisterType([]Book(nil)) }

type store struct {
	inventory []Book
	calls     int
}

func (s *store) Search(keyword string) []Book {
	s.calls++
	var out []Book
	for _, b := range s.inventory {
		if strings.Contains(b.Title, keyword) {
			out = append(out, b)
		}
	}
	return out
}

func (s *store) Add(b Book) (int, error) {
	s.inventory = append(s.inventory, b)
	return len(s.inventory), nil
}

func (s *store) Fail() error { return errors.New("out of stock") }

func (s *store) NoResults(x int) {}

func (s *store) unexported() {}

func newStore() *store {
	return &store{inventory: []Book{
		{Title: "Transaction Processing", Price: 89.0},
		{Title: "Recovery Guarantees", Price: 45.5},
	}}
}

func TestDispatcherEnumeratesExportedMethods(t *testing.T) {
	d, err := NewDispatcher(newStore())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Add", "Fail", "NoResults", "Search"}
	if got := d.MethodNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("MethodNames = %v, want %v", got, want)
	}
	m, ok := d.Method("Add")
	if !ok {
		t.Fatal("Add not found")
	}
	if !m.ReturnsErr || len(m.ParamTypes) != 1 || len(m.ResultTypes) != 1 {
		t.Errorf("Add metadata wrong: %+v", m)
	}
	if _, ok := d.Method("unexported"); ok {
		t.Error("unexported method visible")
	}
}

func TestNewDispatcherRejectsNonPointer(t *testing.T) {
	for _, obj := range []any{nil, 42, store{}, (*store)(nil)} {
		if _, err := NewDispatcher(obj); err == nil {
			t.Errorf("NewDispatcher(%T) succeeded", obj)
		}
	}
}

func TestCallValues(t *testing.T) {
	s := newStore()
	d, _ := NewDispatcher(s)
	res, err := d.CallValues("Search", "Recovery")
	if err != nil {
		t.Fatal(err)
	}
	books := res[0].([]Book)
	if len(books) != 1 || books[0].Title != "Recovery Guarantees" {
		t.Errorf("Search = %+v", books)
	}
	if s.calls != 1 {
		t.Errorf("calls = %d", s.calls)
	}
}

func TestCallValuesAppError(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	_, err := d.CallValues("Fail")
	if err == nil || err.Error() != "out of stock" {
		t.Errorf("err = %v", err)
	}
}

func TestCallValuesArgCountMismatch(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	if _, err := d.CallValues("Search"); err == nil {
		t.Error("missing arg accepted")
	}
	if _, err := d.CallValues("Search", "a", "b"); err == nil {
		t.Error("extra arg accepted")
	}
}

func TestCallValuesUnknownMethod(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	if _, err := d.CallValues("Nope"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestCallValuesTypeMismatch(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	if _, err := d.CallValues("Search", 42); err == nil {
		t.Error("int for string accepted")
	}
}

func TestInvokeEncodedRoundTrip(t *testing.T) {
	s := newStore()
	d, _ := NewDispatcher(s)
	args, n, err := EncodeArgs("Transaction")
	if err != nil {
		t.Fatal(err)
	}
	results, nres, appErr, err := d.InvokeEncoded("Search", args, n)
	if err != nil || appErr != "" {
		t.Fatalf("invoke: %v / %q", err, appErr)
	}
	if nres != 1 {
		t.Fatalf("numResults = %d", nres)
	}
	out, err := DecodeResults(results)
	if err != nil {
		t.Fatal(err)
	}
	books := out[0].([]Book)
	if len(books) != 1 || books[0].Title != "Transaction Processing" {
		t.Errorf("decoded = %+v", books)
	}

	// Past stackVals arguments and results the lists are heap-allocated.
	args, n, err = EncodeArgs(1, 2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, _ = NewDispatcher(&adder{})
	results, nres, appErr, err = d.InvokeEncoded("Rotate", args, n)
	if err != nil || appErr != "" || nres != 5 {
		t.Fatalf("invoke Rotate: %v / %q / %d results", err, appErr, nres)
	}
	if out, err = DecodeResults(results); err != nil || !reflect.DeepEqual(out, []any{2, 3, 4, 5, 1}) {
		t.Errorf("Rotate results = %v, %v", out, err)
	}
}

func TestInvokeEncodedAppErrorTravels(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	args, n, _ := EncodeArgs()
	_, _, appErr, err := d.InvokeEncoded("Fail", args, n)
	if err != nil {
		t.Fatal(err)
	}
	if appErr != "out of stock" {
		t.Errorf("appErr = %q", appErr)
	}
}

// widths declares the numeric parameter kinds a generic caller need not
// match exactly.
type widths struct{}

func (*widths) Int(x int)         {}
func (*widths) Int8(x int8)       {}
func (*widths) Uint(x uint)       {}
func (*widths) Float32(x float32) {}

func TestInvokeEncodedNumericCoercion(t *testing.T) {
	s := newStore()
	d, _ := NewDispatcher(s)
	// NoResults takes int; a generic caller may send any numeric width.
	for _, arg := range []any{int64(7), int8(7), uint16(7), float64(7)} {
		args, n, _ := EncodeArgs(arg)
		if _, _, _, err := d.InvokeEncoded("NoResults", args, n); err != nil {
			t.Errorf("%T -> int coercion failed: %v", arg, err)
		}
	}
	// A conversion that would change the number is refused.
	w, _ := NewDispatcher(&widths{})
	for _, tc := range []struct {
		method string
		arg    any
		ok     bool
	}{
		{"Int8", int64(-128), true},
		{"Int8", int64(300), false},
		{"Int", 2.5, false},
		{"Int", -3.0, true},
		{"Int", uint64(math.MaxUint64), false},
		{"Uint", -1, false},
		{"Uint", uint64(math.MaxUint64), true},
		{"Float32", 2.5, true},
		{"Float32", math.NaN(), true},
		{"Float32", math.Inf(-1), true},
		{"Float32", 0.1, false},
		{"Float32", 1e300, false},
		{"Float32", 1<<24 + 1, false},
	} {
		args, n, _ := EncodeArgs(tc.arg)
		_, _, _, err := w.InvokeEncoded(tc.method, args, n)
		refused := err != nil && strings.Contains(err.Error(), "arg 0: "+reflect.TypeOf(tc.arg).String()+" is not assignable")
		if err != nil && !refused {
			t.Errorf("%s(%T %v): %v", tc.method, tc.arg, tc.arg, err)
		} else if refused == tc.ok {
			t.Errorf("%s(%T %v): refused %v, want %v", tc.method, tc.arg, tc.arg, refused, !tc.ok)
		}
	}
	// The same rule fits a stub's results.
	var c struct{ Small func() (int8, error) }
	if err := BindStub(&c, func(string, ...any) ([]any, error) { return []any{int64(300)}, nil }); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Small(); err == nil || !strings.Contains(err.Error(), "result 0: int64 is not assignable to int8") {
		t.Errorf("int64(300) as an int8 result: %v, %v", v, err)
	}
}

func TestInvokeEncodedRejectsBadInput(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	if _, _, _, err := d.InvokeEncoded("Nope", nil, 0); err == nil {
		t.Error("unknown method accepted")
	}
	if _, _, _, err := d.InvokeEncoded("Search", []byte("garbage"), 1); err == nil {
		t.Error("garbage args accepted")
	}
	wantsOne := "rpc: *rpc.store.Search wants 1 args, got 2"
	args, _, _ := EncodeArgs("a", "b")
	if _, _, _, err := d.InvokeEncoded("Search", args, 2); err == nil || err.Error() != wantsOne {
		t.Errorf("two args for Search: %v, want %q", err, wantsOne)
	}
	five, _, _ := EncodeArgs(1, 2, 3, 4, 5)
	if _, _, _, err := d.InvokeEncoded("NoResults", five, 5); err == nil || err.Error() != "rpc: *rpc.store.NoResults wants 1 args, got 5" {
		t.Errorf("five args for NoResults: %v", err)
	}
	// The envelope's count and the stream's must agree too.
	one, _, _ := EncodeArgs("a")
	if _, _, _, err := d.InvokeEncoded("Search", one, 2); err == nil || !strings.Contains(err.Error(), "wants 1 args, got 1") {
		t.Errorf("NumArgs 2 over a one-value stream: %v", err)
	}
	if _, err := d.CallValues("Search", "a", "b"); err == nil || err.Error() != wantsOne {
		t.Errorf("CallValues with two args: %v, want %q", err, wantsOne)
	}
	argsStr, _, _ := EncodeArgs("x")
	if _, _, _, err := d.InvokeEncoded("NoResults", argsStr, 1); err == nil ||
		!strings.Contains(err.Error(), "arg 0: string is not assignable to int") {
		t.Errorf("string for int: %v", err)
	}
}

func TestEncodeArgsRejectsUntypedNil(t *testing.T) {
	if _, _, err := EncodeArgs(nil); err == nil {
		t.Error("untyped nil accepted")
	}
}

func TestMethodWithNoResults(t *testing.T) {
	d, _ := NewDispatcher(newStore())
	args, n, _ := EncodeArgs(1)
	results, nres, appErr, err := d.InvokeEncoded("NoResults", args, n)
	if err != nil || appErr != "" || nres != 0 {
		t.Fatalf("invoke: %v %q %d", err, appErr, nres)
	}
	out, err := DecodeResults(results)
	if err != nil || len(out) != 0 {
		t.Errorf("decode empty results: %v %v", out, err)
	}
}

func TestObject(t *testing.T) {
	s := newStore()
	d, _ := NewDispatcher(s)
	if d.Object() != any(s) {
		t.Error("Object() lost the instance")
	}
}

type adder struct{ n int }

func (a *adder) Add(d int) (int, error) { a.n += d; return a.n, nil }

// Rotate is wider than InvokeEncoded's stack scratch on both sides.
func (a *adder) Rotate(v, w, x, y, z int) (int, int, int, int, int) { return w, x, y, z, v }

// TestAllocsInvokeEncoded gates the dispatch of the benchmark's call
// shape — one int in, one int and a nil error out — at five
// allocations: what reflect's Call makes for itself and its results,
// the boxed result, the result bytes. The argument list, its
// reflect.Values and the result list live in InvokeEncoded's frame.
func TestAllocsInvokeEncoded(t *testing.T) {
	d, err := NewDispatcher(&adder{n: 1 << 20}) // past the runtime's preboxed small ints
	if err != nil {
		t.Fatal(err)
	}
	args, n, err := EncodeArgs(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, _, _, err := d.InvokeEncoded("Add", args, n); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Errorf("InvokeEncoded(Add) allocates %v objects, gate 5", got)
	}
}
