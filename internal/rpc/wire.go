package rpc

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/msg"
)

// InvokeEncoded runs the named method from an encoded argument list
// (msg value stream) and produces the encoded result list — the full
// marshalled path a cross-context call takes. The appErr return carries
// the method's own error (the component stays alive; this is the
// paper's "invalid argument exception indicates an error, but the
// remote component is still alive" case); err reports infrastructure
// failures (unknown method, undecodable or mismatched arguments).
func (d *Dispatcher) InvokeEncoded(name string, args []byte, numArgs int) (results []byte, numResults int, appErr string, err error) {
	m, ok := d.methods[name]
	if !ok {
		return nil, 0, "", fmt.Errorf("rpc: %T has no method %q", d.obj, name)
	}
	// Arguments, their reflect.Values and the results are dead when
	// this returns: up to stackVals of each live in this frame.
	var argBuf, outBuf [stackVals]any
	var valBuf [stackVals]reflect.Value
	decoded, err := msg.DecodeAnyInto(argBuf[:0], args)
	if err != nil {
		return nil, 0, "", fmt.Errorf("rpc: %T.%s: %w", d.obj, name, err)
	}
	if len(decoded) != numArgs || numArgs != len(m.ParamTypes) {
		return nil, 0, "", fmt.Errorf("rpc: %T.%s wants %d args, got %d",
			d.obj, name, len(m.ParamTypes), len(decoded))
	}
	vals := valBuf[:0]
	if len(decoded) > stackVals {
		vals = make([]reflect.Value, 0, len(decoded))
	}
	for i, a := range decoded {
		v, err := coerce(a, m.ParamTypes[i])
		if err != nil {
			return nil, 0, "", fmt.Errorf("rpc: %T.%s arg %d: %w", d.obj, name, i, err)
		}
		vals = append(vals, v)
	}
	out, callErr := m.call(vals)
	if callErr != nil {
		appErr = callErr.Error()
		if appErr == "" {
			appErr = "application error"
		}
	}
	anyOut := outBuf[:0]
	for _, o := range out {
		anyOut = append(anyOut, o.Interface())
	}
	results, err = msg.EncodeAnySlice(anyOut)
	if err != nil {
		return nil, 0, "", fmt.Errorf("rpc: %T.%s results: %w", d.obj, name, err)
	}
	return results, len(anyOut), appErr, nil
}

// stackVals is how many arguments or results fit InvokeEncoded's frame.
const stackVals = 4

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
