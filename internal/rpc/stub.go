package rpc

import (
	"fmt"
	"reflect"
)

// CallFunc is the transport a stub dispatches through: the generic
// Call(method, args...) of a component proxy.
type CallFunc func(method string, args ...any) ([]any, error)

// BindStub fills the exported func-typed fields of *stub with typed
// wrappers around call, giving a component reference a statically
// typed client surface without code generation:
//
//	type StoreClient struct {
//		Search func(keyword string) ([]Book, error)
//		Buy    func(title string) (Book, error)
//	}
//	var c StoreClient
//	rpc.BindStub(&c, ref.Call)
//	books, err := c.Search("recovery")
//
// Each field's name is the remote method name; its signature must
// declare an error as the last result. Results decoded from the wire
// are converted to the declared types (a number converts to another
// numeric kind when it keeps its value; anything else must match
// exactly, or the call returns an error).
func BindStub(stub any, call CallFunc) error {
	v := reflect.ValueOf(stub)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("rpc: BindStub wants a non-nil pointer to struct, got %T", stub)
	}
	v = v.Elem()
	if v.Kind() != reflect.Struct {
		return fmt.Errorf("rpc: BindStub wants a pointer to struct, got %T", stub)
	}
	t := v.Type()
	bound := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Func {
			continue
		}
		ft := f.Type
		if ft.NumOut() == 0 || ft.Out(ft.NumOut()-1) != errType {
			return fmt.Errorf("rpc: stub field %s must return an error last", f.Name)
		}
		if ft.IsVariadic() {
			return fmt.Errorf("rpc: stub field %s: variadic signatures are not supported", f.Name)
		}
		method := f.Name
		v.Field(i).Set(reflect.MakeFunc(ft, func(in []reflect.Value) []reflect.Value {
			return invokeStub(ft, method, call, in)
		}))
		bound++
	}
	if bound == 0 {
		return fmt.Errorf("rpc: %T has no exported func fields to bind", stub)
	}
	return nil
}

func invokeStub(ft reflect.Type, method string, call CallFunc, in []reflect.Value) []reflect.Value {
	args := make([]any, len(in))
	for i, a := range in {
		args[i] = a.Interface()
	}
	nOut := ft.NumOut() - 1 // excluding the trailing error
	fail := func(err error) []reflect.Value {
		out := make([]reflect.Value, nOut+1)
		for i := 0; i < nOut; i++ {
			out[i] = reflect.Zero(ft.Out(i))
		}
		out[nOut] = reflect.ValueOf(&err).Elem()
		return out
	}

	results, err := call(method, args...)
	if err != nil {
		return fail(err)
	}
	if len(results) != nOut {
		return fail(fmt.Errorf("rpc: %s returned %d results, stub declares %d",
			method, len(results), nOut))
	}
	out := make([]reflect.Value, nOut+1)
	for i := 0; i < nOut; i++ {
		cv, cerr := coerce(results[i], ft.Out(i))
		if cerr != nil {
			return fail(fmt.Errorf("rpc: %s result %d: %w", method, i, cerr))
		}
		out[i] = cv
	}
	out[nOut] = reflect.Zero(errType)
	return out
}
