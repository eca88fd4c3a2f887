// Package rpc provides reflection-based method dispatch for Phoenix/App
// components, the Go analogue of .NET remoting's marshalled method
// invocation. A Dispatcher wraps a component object and invokes its
// exported methods from encoded argument lists, producing encoded
// result lists (internal/msg value streams) — the representation that
// travels on the wire and into the recovery log, so that replaying a
// logged call is bit-identical to receiving it.
//
// Method convention: any exported method whose parameters and results
// the value codec can carry (its closed set of basic types, plus
// msg.RegisterType'd application types) can be called remotely. A
// trailing error result is separated out as the application error (it
// travels as a string in the reply and is re-raised at the caller);
// other results are encoded in order.
package rpc

import (
	"fmt"
	"reflect"
	"sync"
)

// Method describes one callable method of a component type.
type Method struct {
	// Name is the exported method name.
	Name string
	// ParamTypes are the declared parameter types (receiver excluded).
	ParamTypes []reflect.Type
	// ReturnsErr reports whether the method's last result is an error.
	ReturnsErr bool

	// fn is the type's reflect.Method.Func, the receiver its argument
	// 0: one Method serves every instance, and no call binds a method
	// value.
	fn reflect.Value
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// tables holds each component type's method table, compiled on first
// use: every Dispatcher of a type — Create, a subordinate, each
// recovery build — shares it.
var tables sync.Map // reflect.Type -> map[string]*Method

func tableFor(t reflect.Type) map[string]*Method {
	if tb, ok := tables.Load(t); ok {
		return tb.(map[string]*Method)
	}
	tb := make(map[string]*Method, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !m.IsExported() {
			continue
		}
		mt, n := m.Func.Type(), m.Func.Type().NumOut()
		meth := &Method{Name: m.Name, ReturnsErr: n > 0 && mt.Out(n-1) == errType, fn: m.Func}
		for p := 1; p < mt.NumIn(); p++ { // skip receiver
			meth.ParamTypes = append(meth.ParamTypes, mt.In(p))
		}
		tb[m.Name] = meth
	}
	actual, _ := tables.LoadOrStore(t, tb)
	return actual.(map[string]*Method)
}

// Dispatcher invokes methods on a single component object.
type Dispatcher struct {
	obj     any
	recv    reflect.Value      // obj, argument 0 of every call
	methods map[string]*Method // its type's table
}

// NewDispatcher returns a dispatcher for the exported methods of obj (a
// pointer to a component struct).
func NewDispatcher(obj any) (*Dispatcher, error) {
	v := reflect.ValueOf(obj)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		return nil, fmt.Errorf("rpc: component must be a non-nil pointer, got %T", obj)
	}
	return &Dispatcher{obj: obj, recv: v, methods: tableFor(v.Type())}, nil
}

// Object returns the wrapped component instance.
func (d *Dispatcher) Object() any { return d.obj }

// Method looks up a method by name.
func (d *Dispatcher) Method(name string) (*Method, bool) {
	m, ok := d.methods[name]
	return m, ok
}

// call invokes the method with in — the receiver, then the arguments —
// and splits a trailing error result off as the application error.
func (m *Method) call(in []reflect.Value) ([]reflect.Value, error) {
	out := m.fn.Call(in)
	if m.ReturnsErr {
		last := out[len(out)-1]
		out = out[:len(out)-1]
		if !last.IsNil() {
			return out, last.Interface().(error)
		}
	}
	return out, nil
}

// CallValues invokes the named method with interface{} arguments and
// returns its results and application error. It is the local
// (non-marshalled) path used for subordinate calls, which the paper
// leaves unintercepted (Section 3.2.1).
func (d *Dispatcher) CallValues(name string, args ...any) ([]any, error) {
	m, ok := d.methods[name]
	if !ok {
		return nil, fmt.Errorf("rpc: %T has no method %q", d.obj, name)
	}
	if len(args) != len(m.ParamTypes) {
		return nil, fmt.Errorf("rpc: %T.%s wants %d args, got %d",
			d.obj, name, len(m.ParamTypes), len(args))
	}
	var inBuf [1 + stackVals]reflect.Value
	in := append(inBuf[:0], d.recv)
	for i, a := range args {
		av := reflect.ValueOf(a)
		if !av.IsValid() {
			av = reflect.Zero(m.ParamTypes[i])
		}
		if !av.Type().AssignableTo(m.ParamTypes[i]) {
			return nil, fmt.Errorf("rpc: %T.%s arg %d: %s is not assignable to %s",
				d.obj, name, i, av.Type(), m.ParamTypes[i])
		}
		in = append(in, av)
	}
	out, err := m.call(in)
	res := make([]any, len(out))
	for i, o := range out {
		res[i] = o.Interface()
	}
	return res, err
}
