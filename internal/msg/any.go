package msg

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
)

// Argument and result lists travel as tagged value streams (value.go),
// so a generic client can decode a reply without knowing the remote
// method's signature. A value whose type is outside the codec's closed
// set is carried under a registered name: applications register their
// own types with RegisterType (the public phoenix.RegisterType forwards
// to it), once, on every process that sends or receives them.

// registry holds every compiled plan. It is copy-on-write: a
// compilation publishes a new one, so the codec's lookups are a plain
// map read with no lock.
type registry struct {
	byName map[string]*Plan       // RegisterType'd types: the decoder's lookup behind tagNamed
	byTag  [tagNamed]*Plan        // the closed set: the decoder's lookup by tag
	byType map[reflect.Type]*Plan // every compiled type; one that travels carries its tag
}

var (
	regMu sync.Mutex // serializes compilation and registration
	reg   = func() *atomic.Pointer[registry] {
		p := new(atomic.Pointer[registry])
		p.Store(&registry{byName: map[string]*Plan{}, byType: map[reflect.Type]*Plan{}})
		return p
	}()
)

// PlanFor returns the plan of t, compiled on first use and shared from
// then on. A type the codec cannot carry (a chan, func, unsafe-pointer
// or complex kind, a struct with no exported fields, a map keyed by
// anything but a bool, integer or string kind) is an error naming the
// path to the offending field.
func PlanFor(t reflect.Type) (*Plan, error) {
	if p := reg.Load().byType[t]; p != nil {
		return p, nil
	}
	return register(t, 0, "")
}

// The closed set: the types that travel in a value stream under a tag
// of their own rather than tagNamed and a name. Their bodies are their
// plans', the same as where they are a statically typed field.
func init() {
	for tag, v := range [tagNamed]any{
		tagInt: 0, tagInt8: int8(0), tagInt16: int16(0), tagInt32: int32(0), tagInt64: int64(0),
		tagUint: uint(0), tagUint8: uint8(0), tagUint16: uint16(0), tagUint32: uint32(0), tagUint64: uint64(0),
		tagFloat32: float32(0), tagFloat64: 0.0, tagString: "", tagBool: false, tagBytes: []byte(nil),
		tagStrings: []string(nil), tagInts: []int(nil), tagInt64s: []int64(nil), tagFloat64s: []float64(nil),
		tagMapStringString: map[string]string(nil), tagMapStringInt: map[string]int(nil),
		tagMapStringFloat64: map[string]float64(nil), tagMapStringAny: map[string]any(nil), tagAnys: []any(nil),
	} {
		if v != nil {
			if _, err := register(reflect.TypeOf(v), byte(tag), ""); err != nil {
				panic(err)
			}
		}
	}
}

// register compiles t's plan unless that is done and, given a tag,
// files the type under it (tagNamed: under name).
func register(t reflect.Type, tag byte, name string) (*Plan, error) {
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	if q := old.byName[name]; q != nil {
		if q.typ == t {
			return q, nil
		}
		return nil, fmt.Errorf("msg: name %q is already taken by %s", name, q.typ)
	}
	p := old.byType[t]
	if p != nil && (tag == 0 || p.tag != 0) {
		return p, nil // a closed-set type keeps its tag
	}
	next := *old
	next.byType = maps.Clone(old.byType)
	if p == nil {
		c := planCompiler{done: old.byType, seen: map[reflect.Type]*Plan{}}
		if p = c.compile(t, t.String()); c.err != nil {
			return nil, c.err
		}
		for _, q := range c.seen {
			q.sig = layoutSig(q)
			next.byType[q.typ] = q
		}
	}
	if tag != 0 {
		// The plan may be shared already (reached through another type,
		// handed out by PlanFor), so the tag goes on a copy of its root.
		tagged := *p
		tagged.tag, tagged.name, p = tag, name, &tagged
		next.byType[t] = p
		if tag == tagNamed {
			next.byName = maps.Clone(old.byName)
			next.byName[name] = p
		} else {
			next.byTag[tag] = p
		}
	}
	reg.Store(&next)
	return p, nil
}

// RegisterType makes a concrete type transmissible as a method argument
// or result, and storable in an interface-typed field of a component's
// saved state. Call it once (e.g. from an init function) for every
// application type that crosses a component boundary inside an
// interface — the struct and, separately, any slice or pointer of it
// that is passed directly. The type's encoding plan is compiled here,
// so a type the codec cannot carry panics at registration, naming the
// offending field, not on first send. Registering a type again is a
// no-op; two types under one name panic.
func RegisterType(v any) {
	t := reflect.TypeOf(v)
	if t == nil {
		panic("msg: RegisterType(nil): pass a typed value")
	}
	if _, err := register(t, tagNamed, typeName(t)); err != nil {
		panic(fmt.Sprintf("RegisterType(%s): %v", t, err))
	}
}

// typeName is the name a type travels under: import path + name for a
// named type (or a pointer to one), the printed form otherwise.
func typeName(t reflect.Type) string {
	star := ""
	if t.Name() == "" && t.Kind() == reflect.Pointer {
		star, t = "*", t.Elem()
	}
	if t.Name() != "" && t.PkgPath() != "" {
		return star + t.PkgPath() + "." + t.Name()
	}
	return star + t.String()
}

// namedPlan returns the plan registered under name, or nil.
func namedPlan(name []byte) *Plan { return reg.Load().byName[string(name)] }
