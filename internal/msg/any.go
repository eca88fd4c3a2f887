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

// registry is the set of registered types. It is copy-on-write: a
// registration publishes a new one, so the codec's lookups are a plain
// map read with no lock.
type registry struct {
	byName map[string]*plan       // the decoder's lookup
	byType map[reflect.Type]*plan // the encoder's lookup
}

var (
	regMu sync.Mutex // serializes RegisterType
	reg   = func() *atomic.Pointer[registry] {
		p := new(atomic.Pointer[registry])
		p.Store(&registry{byName: map[string]*plan{}, byType: map[reflect.Type]*plan{}})
		return p
	}()
)

// RegisterType makes a concrete type transmissible as a method argument
// or result. Call it once (e.g. from an init function) for every
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
	name := typeName(t)
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	if p := old.byName[name]; p != nil {
		if p.typ == t {
			return
		}
		panic(fmt.Sprintf("msg: RegisterType(%s): name %q is already taken by %s", t, name, p.typ))
	}
	p := compilePlan(t)
	p.name = name
	next := &registry{byName: maps.Clone(old.byName), byType: maps.Clone(old.byType)}
	next.byName[name] = p
	next.byType[t] = p
	reg.Store(next)
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

// registeredPlan returns the plan t was registered with, or nil.
func registeredPlan(t reflect.Type) *plan { return reg.Load().byType[t] }

// namedPlan returns the plan registered under name, or nil.
func namedPlan(name []byte) *plan { return reg.Load().byName[string(name)] }
