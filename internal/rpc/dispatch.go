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
	"sort"
)

// Method describes one callable method of a component.
type Method struct {
	// Name is the exported method name.
	Name string
	// ParamTypes are the declared parameter types (receiver excluded).
	ParamTypes []reflect.Type
	// ResultTypes are the declared result types, excluding a trailing
	// error.
	ResultTypes []reflect.Type
	// ReturnsErr reports whether the method's last result is an error.
	ReturnsErr bool

	fn reflect.Value
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// Dispatcher invokes methods on a single component object.
type Dispatcher struct {
	obj     any
	methods map[string]*Method
}

// NewDispatcher enumerates the exported methods of obj (a pointer to a
// component struct) and returns a dispatcher for them.
func NewDispatcher(obj any) (*Dispatcher, error) {
	v := reflect.ValueOf(obj)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		return nil, fmt.Errorf("rpc: component must be a non-nil pointer, got %T", obj)
	}
	d := &Dispatcher{obj: obj, methods: make(map[string]*Method)}
	t := v.Type()
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !m.IsExported() {
			continue
		}
		mt := m.Func.Type()
		meth := &Method{Name: m.Name, fn: v.Method(i)}
		for p := 1; p < mt.NumIn(); p++ { // skip receiver
			meth.ParamTypes = append(meth.ParamTypes, mt.In(p))
		}
		n := mt.NumOut()
		if n > 0 && mt.Out(n-1) == errType {
			meth.ReturnsErr = true
			n--
		}
		for r := 0; r < n; r++ {
			meth.ResultTypes = append(meth.ResultTypes, mt.Out(r))
		}
		d.methods[m.Name] = meth
	}
	return d, nil
}

// Object returns the wrapped component instance.
func (d *Dispatcher) Object() any { return d.obj }

// Method looks up a method by name.
func (d *Dispatcher) Method(name string) (*Method, bool) {
	m, ok := d.methods[name]
	return m, ok
}

// MethodNames returns the callable method names, sorted.
func (d *Dispatcher) MethodNames() []string {
	names := make([]string, 0, len(d.methods))
	for n := range d.methods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Call invokes the named method with already-decoded argument values
// and returns its results and application error. It is the local
// (non-marshalled) fast path used for subordinate calls, which the
// paper leaves unintercepted (Section 3.2.1).
func (d *Dispatcher) Call(name string, args []reflect.Value) ([]reflect.Value, error) {
	m, ok := d.methods[name]
	if !ok {
		return nil, fmt.Errorf("rpc: %T has no method %q", d.obj, name)
	}
	if len(args) != len(m.ParamTypes) {
		return nil, fmt.Errorf("rpc: %T.%s wants %d args, got %d",
			d.obj, name, len(m.ParamTypes), len(args))
	}
	return m.call(args)
}

// call invokes the method and splits a trailing error result off as
// the application error.
func (m *Method) call(args []reflect.Value) ([]reflect.Value, error) {
	out := m.fn.Call(args)
	if m.ReturnsErr {
		last := out[len(out)-1]
		out = out[:len(out)-1]
		if !last.IsNil() {
			return out, last.Interface().(error)
		}
	}
	return out, nil
}

// CallValues is a convenience wrapper over Call for interface{} args
// and results (used by tests and the Local subordinate handle).
func (d *Dispatcher) CallValues(name string, args ...any) ([]any, error) {
	m, ok := d.methods[name]
	if !ok {
		return nil, fmt.Errorf("rpc: %T has no method %q", d.obj, name)
	}
	if len(args) != len(m.ParamTypes) {
		return nil, fmt.Errorf("rpc: %T.%s wants %d args, got %d",
			d.obj, name, len(m.ParamTypes), len(args))
	}
	vals := make([]reflect.Value, len(args))
	for i, a := range args {
		av := reflect.ValueOf(a)
		if !av.IsValid() {
			av = reflect.Zero(m.ParamTypes[i])
		}
		if !av.Type().AssignableTo(m.ParamTypes[i]) {
			return nil, fmt.Errorf("rpc: %T.%s arg %d: %s is not assignable to %s",
				d.obj, name, i, av.Type(), m.ParamTypes[i])
		}
		vals[i] = av
	}
	out, err := d.Call(name, vals)
	res := make([]any, len(out))
	for i, o := range out {
		res[i] = o.Interface()
	}
	return res, err
}
