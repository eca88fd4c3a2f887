// Package serial captures and restores the field state of a component.
//
// Paper Section 4.2: "To save or restore the internal fields of a
// component, we use the .NET reflection mechanism to obtain its field
// types and values. ... We specially handle pointer fields referencing
// Phoenix/App components. For a remote component reference, we save the
// component URI; for a local component reference (to a component in the
// same context), we store the component ID. When restoring a pointer
// field, we re-obtain the pointer using the saved URI or component ID."
//
// The Go translation: a component is a pointer to a struct; each
// exported field is laid out by the msg plan of its type, the codec
// call arguments travel in (unexported fields are transient, the idiom
// encoding/json established; fields tagged `phoenix:"-"` are also
// skipped). An interface-typed field holds what an argument list may.
// Fields whose types implement RemoteRef or LocalRef — the proxy types
// of the runtime — are saved as a URI or component ID and re-resolved
// through a Resolver at restore time, because a proxy holds live
// transport state that must not be serialized.
package serial

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"repro/internal/ids"
	"repro/internal/msg"
)

// RemoteRef is implemented by proxies to components in other contexts;
// the URI is what a context state record stores for the field.
type RemoteRef interface {
	PhoenixURI() ids.URI
}

// LocalRef is implemented by handles to components within the same
// context (a parent's reference to its subordinate); the component ID
// is what the state record stores.
type LocalRef interface {
	PhoenixLocalID() ids.CompID
}

// Resolver re-obtains component references when a state record is
// restored (paper: "we re-obtain the pointer using the saved URI or
// component ID"). The returned value must be assignable to the field
// type it is restored into.
type Resolver interface {
	ResolveRemote(u ids.URI, fieldType reflect.Type) (any, error)
	ResolveLocal(id ids.CompID, fieldType reflect.Type) (any, error)
}

// FieldKind tags how a field was captured.
type FieldKind uint8

const (
	// KindValue is an ordinary value, laid out by its field type's plan.
	KindValue FieldKind = iota
	// KindRemoteRef is a remote component reference stored as a URI.
	KindRemoteRef
	// KindLocalRef is a same-context component reference stored as a
	// component ID.
	KindLocalRef
	// KindNilRef is a nil component reference.
	KindNilRef
)

// FieldState is one captured field.
type FieldState struct {
	Name string
	Kind FieldKind
	// Data is msg.Plan.Append's encoding of the value (KindValue), the
	// URI bytes (KindRemoteRef), or the component ID as a uvarint
	// (KindLocalRef).
	Data []byte
}

// State is the captured field state of one component, the unit stored
// inside a context state record.
type State struct {
	// TypeName records the component's Go type for sanity checking at
	// restore.
	TypeName string
	Fields   []FieldState
}

// field is one saved field of a component type: exported and not
// tagged `phoenix:"-"`.
type field struct {
	name  string
	index int
	plan  *msg.Plan // lays the value out; nil for a component reference, saved by URI or ID
}

var fieldLists sync.Map // reflect.Type (the struct) → []field in declaration order, built once

// fieldsOf returns obj's struct value and the saved fields of its type.
func fieldsOf(obj any) (reflect.Value, []field, error) {
	v := reflect.ValueOf(obj)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return v, nil, fmt.Errorf("serial: component must be a non-nil pointer to struct, got %T", obj)
	}
	v = v.Elem()
	t := v.Type()
	if fields, ok := fieldLists.Load(t); ok {
		return v, fields.([]field), nil
	}
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() || sf.Tag.Get("phoenix") == "-" {
			continue
		}
		f := field{name: sf.Name, index: i}
		if !sf.Type.Implements(remoteRefType) && !sf.Type.Implements(localRefType) {
			var err error
			if f.plan, err = msg.PlanFor(sf.Type); err != nil {
				return v, nil, fmt.Errorf("serial: %s.%s: %w", t, sf.Name, err)
			}
		}
		fields = append(fields, f)
	}
	fieldLists.Store(t, fields)
	return v, fields, nil
}

// Capture reads the exported fields of obj (a pointer to struct) into a
// State. The context must be quiescent — not serving a call — exactly
// as Section 4.2 requires ("context states are saved only when the
// context is not active"), so field values alone suffice.
func Capture(obj any) (*State, error) {
	v, fields, err := fieldsOf(obj)
	if err != nil {
		return nil, err
	}
	st := &State{TypeName: v.Type().String(), Fields: make([]FieldState, len(fields))}
	var buf []byte // the value fields' Data, back to back
	for i, f := range fields {
		fs, fv := &st.Fields[i], v.Field(f.index)
		fs.Name = f.name
		if f.plan == nil {
			fs.Kind, fs.Data = captureRef(fv)
			continue
		}
		start := len(buf)
		if buf, err = f.plan.Append(buf, fv); err != nil {
			return nil, fmt.Errorf("serial: capture %s.%s: %w", st.TypeName, f.name, err)
		}
		fs.Data = buf[start:len(buf):len(buf)]
	}
	return st, nil
}

func captureRef(fv reflect.Value) (FieldKind, []byte) {
	if (fv.Kind() == reflect.Interface || fv.Kind() == reflect.Pointer) && fv.IsNil() {
		return KindNilRef, nil
	}
	if r, ok := fv.Interface().(RemoteRef); ok {
		return KindRemoteRef, []byte(r.PhoenixURI())
	}
	return KindLocalRef, msg.AppendUvarint(nil, uint64(fv.Interface().(LocalRef).PhoenixLocalID()))
}

// Restore writes the captured state back into obj, which must be of
// the type Capture saw, resolving component references through r. Each
// field in the state replaces what obj held (a map is not merged
// into); fields of obj absent from the state are left alone; a field in
// the state with no match in obj, or captured from a field of another
// type, is an error — the state and the code disagree.
func Restore(obj any, st *State, r Resolver) error {
	v, fields, err := fieldsOf(obj)
	if err != nil {
		return err
	}
	if t := v.Type().String(); st.TypeName != t {
		return fmt.Errorf("serial: state is for %s, object is %s", st.TypeName, t)
	}
	for i := range st.Fields {
		fs := &st.Fields[i]
		j := slices.IndexFunc(fields, func(f field) bool { return f.name == fs.Name })
		if j < 0 {
			return fmt.Errorf("serial: state field %s.%s not found in object", st.TypeName, fs.Name)
		}
		if err := restoreField(v.Field(fields[j].index), fields[j].plan, fs, r); err != nil {
			return fmt.Errorf("serial: restore %s.%s: %w", st.TypeName, fs.Name, err)
		}
	}
	return nil
}

func restoreField(fv reflect.Value, plan *msg.Plan, fs *FieldState, r Resolver) error {
	if r == nil && (fs.Kind == KindRemoteRef || fs.Kind == KindLocalRef) {
		return fmt.Errorf("a component reference needs a resolver")
	}
	switch fs.Kind {
	case KindValue:
		if plan == nil {
			return fmt.Errorf("state holds a value, %s is a component reference", fv.Type())
		}
		return plan.Read(fs.Data, fv)
	case KindNilRef:
		fv.SetZero()
		return nil
	case KindRemoteRef:
		val, err := r.ResolveRemote(ids.URI(fs.Data), fv.Type())
		if err != nil {
			return err
		}
		return assign(fv, val)
	case KindLocalRef:
		id, rest, err := msg.ConsumeUvarint(fs.Data)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("bad local reference % x", fs.Data)
		}
		val, err := r.ResolveLocal(ids.CompID(id), fv.Type())
		if err != nil {
			return err
		}
		return assign(fv, val)
	default:
		return fmt.Errorf("unknown field kind %d", fs.Kind)
	}
}

func assign(fv reflect.Value, val any) error {
	rv := reflect.ValueOf(val)
	if !rv.IsValid() {
		fv.SetZero()
		return nil
	}
	if !rv.Type().AssignableTo(fv.Type()) {
		return fmt.Errorf("resolver returned %s, field wants %s", rv.Type(), fv.Type())
	}
	fv.Set(rv)
	return nil
}

var (
	remoteRefType = reflect.TypeOf((*RemoteRef)(nil)).Elem()
	localRefType  = reflect.TypeOf((*LocalRef)(nil)).Elem()
)

// verState opens a State encoding (DESIGN.md Section 10 numbers the
// version bytes).
const verState = 0xC5

// Encode serializes the State for inclusion in a log record: 0xC5,
// TypeName, a field count, then Name/Kind/Data per field, using the
// msg codec primitives — a framing that reads without the Go type.
func (s *State) Encode() ([]byte, error) {
	n := 8 + len(s.TypeName) // a size hint: short lengths take a byte or two
	for i := range s.Fields {
		n += 8 + len(s.Fields[i].Name) + len(s.Fields[i].Data)
	}
	dst := append(make([]byte, 0, n), verState)
	dst = msg.AppendString(dst, s.TypeName)
	dst = msg.AppendUvarint(dst, uint64(len(s.Fields)))
	for i := range s.Fields {
		f := &s.Fields[i]
		dst = msg.AppendString(dst, f.Name)
		dst = append(dst, byte(f.Kind))
		dst = msg.AppendBytes(dst, f.Data)
	}
	return dst, nil
}

// DecodeState deserializes a State produced by Encode. Any first byte
// but 0xC5 is a decode error that names it.
func DecodeState(data []byte) (*State, error) {
	if len(data) == 0 || data[0] != verState {
		return nil, fmt.Errorf("serial: decode state: unknown version byte % #x", data[:min(1, len(data))])
	}
	s, err := decodeStateBinary(data[1:])
	if err != nil {
		return nil, fmt.Errorf("serial: decode state: %w", err)
	}
	return s, nil
}

func decodeStateBinary(data []byte) (*State, error) {
	var s State
	var err error
	var n uint64
	if s.TypeName, data, err = msg.ConsumeString(data); err != nil {
		return nil, err
	}
	if n, data, err = msg.ConsumeUvarint(data); err != nil {
		return nil, err
	}
	if n > uint64(len(data)) { // each field takes at least one byte
		return nil, fmt.Errorf("field count %d exceeds %d remaining bytes", n, len(data))
	}
	s.Fields = make([]FieldState, n)
	for i := range s.Fields {
		f := &s.Fields[i]
		if f.Name, data, err = msg.ConsumeString(data); err != nil {
			return nil, err
		}
		var k byte
		if k, data, err = msg.ConsumeByte(data); err != nil {
			return nil, err
		}
		f.Kind = FieldKind(k)
		if f.Data, data, err = msg.ConsumeBytes(data); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(data))
	}
	return &s, nil
}
