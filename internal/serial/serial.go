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
// The Go translation: a component is a pointer to a struct; its
// exported fields are captured with gob (unexported fields are
// transient, the idiom gob and encoding/json established; fields tagged
// `phoenix:"-"` are also skipped). Fields whose values implement
// RemoteRef or LocalRef — the proxy types of the runtime — are saved as
// a URI or component ID and re-resolved through a Resolver at restore
// time, because a proxy holds live transport state that must not be
// serialized.
package serial

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"

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
	// KindValue is an ordinary gob-encoded value.
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
	// Data is the gob encoding of the value (KindValue), the URI bytes
	// (KindRemoteRef), or the decimal component ID (KindLocalRef).
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

// Capture reads the exported fields of obj (a pointer to struct) into a
// State. The context must be quiescent — not serving a call — exactly
// as Section 4.2 requires ("context states are saved only when the
// context is not active"), so field values alone suffice.
func Capture(obj any) (*State, error) {
	v, t, err := structOf(obj)
	if err != nil {
		return nil, err
	}
	st := &State{TypeName: t.String()}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("phoenix") == "-" {
			continue
		}
		fv := v.Field(i)
		fs, err := captureField(f.Name, fv)
		if err != nil {
			return nil, fmt.Errorf("serial: capture %s.%s: %w", t, f.Name, err)
		}
		st.Fields = append(st.Fields, fs)
	}
	return st, nil
}

func captureField(name string, fv reflect.Value) (FieldState, error) {
	if isRefType(fv.Type()) {
		if fv.Kind() == reflect.Interface || fv.Kind() == reflect.Pointer {
			if fv.IsNil() {
				return FieldState{Name: name, Kind: KindNilRef}, nil
			}
		}
		if r, ok := fv.Interface().(RemoteRef); ok {
			return FieldState{Name: name, Kind: KindRemoteRef, Data: []byte(r.PhoenixURI())}, nil
		}
		if r, ok := fv.Interface().(LocalRef); ok {
			return FieldState{Name: name, Kind: KindLocalRef,
				Data: []byte(fmt.Sprintf("%d", r.PhoenixLocalID()))}, nil
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(fv); err != nil {
		return FieldState{}, err
	}
	return FieldState{Name: name, Kind: KindValue, Data: buf.Bytes()}, nil
}

// RegisterType makes a concrete type storable inside an
// interface-typed component field: field values are gob, which carries
// an interface's dynamic type by registered name.
func RegisterType(v any) { gob.Register(v) }

// The composite types of the value codec's closed set are what a method
// may return and a component may then keep in an interface-typed field,
// so they are storable without the application registering them. (gob
// itself pre-registers the scalars and the slices of scalars.)
func init() {
	for _, v := range []any{
		map[string]string(nil), map[string]int(nil), map[string]float64(nil),
		[]any(nil), map[string]any(nil),
	} {
		gob.Register(v)
	}
}

// Restore writes the captured state back into obj, resolving component
// references through r. obj must be a fresh instance of the same type
// Capture saw. Fields present in obj but absent from the state keep
// their zero values; fields in the state with no match in obj are an
// error (the state and the code disagree).
func Restore(obj any, st *State, r Resolver) error {
	v, t, err := structOf(obj)
	if err != nil {
		return err
	}
	if st.TypeName != t.String() {
		return fmt.Errorf("serial: state is for %s, object is %s", st.TypeName, t)
	}
	for _, fs := range st.Fields {
		sf, ok := t.FieldByName(fs.Name)
		if !ok || !sf.IsExported() {
			return fmt.Errorf("serial: state field %s.%s not found in object", t, fs.Name)
		}
		fv := v.FieldByIndex(sf.Index)
		if err := restoreField(fv, fs, r); err != nil {
			return fmt.Errorf("serial: restore %s.%s: %w", t, fs.Name, err)
		}
	}
	return nil
}

func restoreField(fv reflect.Value, fs FieldState, r Resolver) error {
	switch fs.Kind {
	case KindValue:
		return gob.NewDecoder(bytes.NewReader(fs.Data)).DecodeValue(fv)
	case KindNilRef:
		fv.Set(reflect.Zero(fv.Type()))
		return nil
	case KindRemoteRef:
		if r == nil {
			return fmt.Errorf("remote reference %q needs a resolver", fs.Data)
		}
		val, err := r.ResolveRemote(ids.URI(fs.Data), fv.Type())
		if err != nil {
			return err
		}
		return assign(fv, val)
	case KindLocalRef:
		if r == nil {
			return fmt.Errorf("local reference %q needs a resolver", fs.Data)
		}
		var id ids.CompID
		if _, err := fmt.Sscanf(string(fs.Data), "%d", &id); err != nil {
			return fmt.Errorf("bad local ref %q: %w", fs.Data, err)
		}
		val, err := r.ResolveLocal(id, fv.Type())
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
		fv.Set(reflect.Zero(fv.Type()))
		return nil
	}
	if !rv.Type().AssignableTo(fv.Type()) {
		return fmt.Errorf("resolver returned %s, field wants %s", rv.Type(), fv.Type())
	}
	fv.Set(rv)
	return nil
}

func structOf(obj any) (reflect.Value, reflect.Type, error) {
	v := reflect.ValueOf(obj)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() {
		return reflect.Value{}, nil, fmt.Errorf("serial: component must be a non-nil pointer to struct, got %T", obj)
	}
	v = v.Elem()
	if v.Kind() != reflect.Struct {
		return reflect.Value{}, nil, fmt.Errorf("serial: component must point to a struct, got %T", obj)
	}
	return v, v.Type(), nil
}

var (
	remoteRefType = reflect.TypeOf((*RemoteRef)(nil)).Elem()
	localRefType  = reflect.TypeOf((*LocalRef)(nil)).Elem()
)

func isRefType(t reflect.Type) bool {
	return t.Implements(remoteRefType) || t.Implements(localRefType)
}

// verState is the version byte opening a State encoding, from the
// same numbering as the message-envelope version bytes (DESIGN.md
// Section 10).
const verState = 0xC5

// Encode serializes the State for inclusion in a log record: 0xC5,
// TypeName, a field count, then Name/Kind/Data per field, using the
// msg codec primitives. Field values inside Data stay gob — their
// types are open, exactly like call arguments.
func (s *State) Encode() ([]byte, error) {
	dst := []byte{verState}
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
	if len(data) == 0 {
		return nil, fmt.Errorf("serial: decode state: empty encoding")
	}
	if data[0] != verState {
		return nil, fmt.Errorf("serial: decode state: unknown version byte %#x", data[0])
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
