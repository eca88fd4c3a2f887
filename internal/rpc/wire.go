package rpc

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"reflect"

	"repro/internal/msg"
)

// InvokeEncoded runs the named method from an encoded argument list
// (msg value stream) and produces the encoded result list — the full
// marshalled path a cross-context call takes: Bind, Call, EncodeResults.
// The appErr return carries the method's own error (the component
// stays alive; this is the paper's "invalid argument exception
// indicates an error, but the remote component is still alive" case);
// err reports infrastructure failures (unknown method, undecodable or
// mismatched arguments, results the codec cannot carry).
func (d *Dispatcher) InvokeEncoded(name string, args []byte, numArgs int) (results []byte, numResults int, appErr string, err error) {
	b, err := d.Bind(name, args, numArgs)
	if err != nil {
		return nil, 0, "", err
	}
	out, appErr := b.Call()
	if results, numResults, err = b.EncodeResults(out); err != nil {
		return nil, 0, "", err
	}
	return results, numResults, appErr, nil
}

// stackVals is how many arguments or results a call keeps off the heap.
const stackVals = 4

// BoundCall is a method bound to its receiver and decoded arguments,
// ready to run. Bind returns it by value with up to stackVals arguments
// inside it, so on the caller's stack it costs no heap of its own.
type BoundCall struct {
	d     *Dispatcher
	m     *Method
	in    [1 + stackVals]reflect.Value // the receiver, then the arguments
	spill []reflect.Value              // in, for a method of more arguments
}

// Bind looks up the named method and decodes an encoded argument list
// into its parameters, fitting each decoded value to its declared type
// (coerce). An error — unknown method, undecodable stream, a count or
// type that does not match — means the call cannot run; nothing has.
func (d *Dispatcher) Bind(name string, args []byte, numArgs int) (BoundCall, error) {
	m, ok := d.methods[name]
	if !ok {
		return BoundCall{}, fmt.Errorf("rpc: %T has no method %q", d.obj, name)
	}
	var argBuf [stackVals]any
	decoded, err := msg.DecodeAnyInto(argBuf[:0], args)
	if err != nil {
		return BoundCall{}, fmt.Errorf("rpc: %T.%s: %w", d.obj, name, err)
	}
	if len(decoded) != numArgs || numArgs != len(m.ParamTypes) {
		return BoundCall{}, fmt.Errorf("rpc: %T.%s wants %d args, got %d",
			d.obj, name, len(m.ParamTypes), len(decoded))
	}
	b := BoundCall{d: d, m: m}
	in := b.in[:]
	if numArgs > stackVals {
		b.spill = make([]reflect.Value, 1+numArgs)
		in = b.spill
	}
	in[0] = d.recv
	for i, a := range decoded {
		v, err := coerce(a, m.ParamTypes[i])
		if err != nil {
			return BoundCall{}, fmt.Errorf("rpc: %T.%s arg %d: %w", d.obj, name, i, err)
		}
		in[i+1] = v
	}
	return b, nil
}

// Call runs the bound method: its results, and its error as the
// application error ("" for none).
func (b *BoundCall) Call() ([]reflect.Value, string) {
	in := b.spill
	if in == nil {
		in = b.in[:1+len(b.m.ParamTypes)]
	}
	out, err := b.m.call(in)
	if err == nil {
		return out, ""
	}
	return out, cmp.Or(err.Error(), "application error")
}

// AppendResults appends what Call returned to dst as a reply's result
// list, and returns the extended slice and the number of results (the
// serve path appends into pooled scratch; its reply envelope copies it).
func (b *BoundCall) AppendResults(dst []byte, out []reflect.Value) ([]byte, int, error) {
	var outBuf [stackVals]any
	anyOut := outBuf[:0]
	for _, o := range out {
		anyOut = append(anyOut, o.Interface())
	}
	dst, err := msg.AppendAnySlice(dst, anyOut)
	if err != nil {
		return nil, 0, fmt.Errorf("rpc: %T.%s results: %w", b.d.obj, b.m.Name, err)
	}
	return dst, len(anyOut), nil
}

// EncodeResults is AppendResults into pooled scratch, kept in a copy of
// its exact size that the caller owns (a replay's last-call entry), so a
// long list's growth steps are the pool's, not the call's.
func (b *BoundCall) EncodeResults(out []reflect.Value) ([]byte, int, error) {
	buf, n, err := b.AppendResults(msg.GetBuf(), out)
	results := bytes.Clone(buf) // nil after an error
	msg.FreeBuf(buf)
	return results, n, err
}

// coerce fits a decoded interface value to a declared parameter type.
// Exact assignability always works; a number converts to another
// numeric kind when the conversion keeps its value (a generic caller
// need not match the declared int or float width, but 300 is no int8,
// 2.5 no int and -1 no uint).
func coerce(a any, want reflect.Type) (reflect.Value, error) {
	v := reflect.ValueOf(a)
	if !v.IsValid() {
		return reflect.Zero(want), nil
	}
	if v.Type().AssignableTo(want) {
		return v, nil
	}
	if isNumeric(v.Kind()) && isNumeric(want.Kind()) && v.Type().ConvertibleTo(want) {
		if c := v.Convert(want); keepsValue(v, c) {
			return c, nil
		}
	}
	return reflect.Value{}, fmt.Errorf("%s is not assignable to %s", v.Type(), want)
}

// keepsValue reports whether c, v converted, is the number v is: it
// converts back to v and has v's sign (int64(-1) → uint64 → int64 comes
// back -1). A NaN stays a NaN from float to float.
func keepsValue(v, c reflect.Value) bool {
	if isFloat(v.Kind()) && isFloat(c.Kind()) && math.IsNaN(v.Float()) {
		return true
	}
	return c.Convert(v.Type()).Equal(v) && negative(c) == negative(v)
}

func negative(v reflect.Value) bool {
	switch {
	case isFloat(v.Kind()):
		return v.Float() < 0
	case v.CanInt():
		return v.Int() < 0
	}
	return false
}

func isFloat(k reflect.Kind) bool { return k == reflect.Float32 || k == reflect.Float64 }

func isNumeric(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// EncodeArgs marshals call arguments for the wire (the client-side half
// of InvokeEncoded).
func EncodeArgs(args ...any) ([]byte, int, error) {
	data, err := msg.EncodeAnySlice(args)
	if err != nil {
		return nil, 0, err
	}
	return data, len(args), nil
}

// DecodeResults unmarshals a reply's result stream.
func DecodeResults(data []byte) ([]any, error) {
	return msg.DecodeAnySlice(data)
}
