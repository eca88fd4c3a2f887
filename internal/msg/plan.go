package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// A Plan lays out values of one Go type as bytes. It is compiled from
// the reflect.Type once (PlanFor; RegisterType for a type that travels
// in a value stream, where the plan's body follows tagNamed + name, as
// a closed-set type's follows its own tag) and interpreted on every
// encode and decode — no per-message type analysis. By kind:
//
//	bool                 one byte, 0 or 1
//	int*, uint*, uintptr zig-zag / plain uvarint, range-checked on decode
//	float32, float64     fixed-width little-endian bits
//	string               bytes
//	slice                count, elements ([]byte kinds: bytes); nil == empty
//	array                length (must match the type's), elements
//	map                  count, then key value pairs in ascending order of
//	                     the encoded key; nil == empty
//	pointer              0, or 1 and the pointee
//	interface            a tagged value (tagNil for a nil interface)
//	struct               exported-field count (must match the type's),
//	                     then the exported fields in declaration order
type Plan struct {
	name   string // the registered name; "" for a type never passed to RegisterType
	tag    byte   // what a value stream writes before the body; 0 for a type that cannot travel there
	typ    reflect.Type
	kind   reflect.Kind
	min    int   // fewest bytes an encoded value takes; never 0
	elem   *Plan // slice, array and pointer element; map value
	key    *Plan // map key
	fields []planField
	sig    uint16 // layoutSig(p): what Read checks before trusting a body
}

type planField struct {
	index int
	plan  *Plan
}

// planCompiler builds the plans of one root type and every type it
// reaches that done does not already hold. The first kind the codec
// cannot carry is kept in err, with the path to the offending field;
// the plans built are then garbage and must be dropped.
type planCompiler struct {
	done map[reflect.Type]*Plan // compiled earlier; shared, read-only
	seen map[reflect.Type]*Plan // built here; also what lets a recursive type find itself
	err  error
}

func (c *planCompiler) compile(t reflect.Type, path string) *Plan {
	if p := c.done[t]; p != nil {
		return p
	}
	if p := c.seen[t]; p != nil {
		return p
	}
	// min is final here for every kind a type can recur through
	// (pointer, slice, map, interface), so a parent that sums its
	// children's min never reads a half-built one.
	p := &Plan{typ: t, kind: t.Kind(), min: 1}
	c.seen[t] = p
	switch p.kind {
	case reflect.Bool, reflect.String, reflect.Interface,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
	case reflect.Float32:
		p.min = 4
	case reflect.Float64:
		p.min = 8
	case reflect.Pointer:
		p.elem = c.compile(t.Elem(), path)
	case reflect.Slice:
		p.elem = c.compile(t.Elem(), path+"[]")
	case reflect.Array:
		p.elem = c.compile(t.Elem(), path+"[]")
		p.min = 1 + t.Len()*p.elem.min
	case reflect.Map:
		// Keys are ordered and compared by their encoding, which is
		// only faithful for kinds where equal bytes mean equal keys.
		switch k := t.Key().Kind(); k {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		default:
			c.fail(path, "map key kind "+k.String())
		}
		p.key = c.compile(t.Key(), path+"[key]")
		p.elem = c.compile(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fp := c.compile(f.Type, path+"."+f.Name)
				p.fields = append(p.fields, planField{i, fp})
				p.min += fp.min
			}
		}
		if len(p.fields) == 0 {
			c.fail(path, "struct "+t.String()+" with no exported fields")
		}
	default:
		c.fail(path, "kind "+p.kind.String())
	}
	return p
}

func (c *planCompiler) fail(path, what string) {
	if c.err == nil {
		c.err = fmt.Errorf("msg: %s: %s cannot be carried in a value stream", path, what)
	}
}

// layoutSig folds what p reads and writes — kinds, array lengths and
// exported field names, to any depth; not type names — into 16 bits. A
// plan's bytes carry no types, so a body written under one layout would
// often read "successfully" under another (an int as a uint, two
// swapped string fields): Append leads with the signature and Read
// refuses a body whose signature is not its own.
func layoutSig(p *Plan) uint16 {
	h := fnv.New32a()
	p.writeLayout(h, nil)
	return uint16(h.Sum32() ^ h.Sum32()>>16)
}

// writeLayout writes p's layout to w. open is the chain of plans being
// written, so a recursive type ends in a back-reference.
func (p *Plan) writeLayout(w io.Writer, open []*Plan) {
	if i := slices.Index(open, p); i >= 0 {
		fmt.Fprint(w, "^", len(open)-i)
		return
	}
	open = append(open, p)
	fmt.Fprint(w, p.kind, "(")
	if p.kind == reflect.Array {
		fmt.Fprint(w, p.typ.Len())
	}
	for _, q := range []*Plan{p.key, p.elem} {
		if q != nil {
			q.writeLayout(w, open)
		}
	}
	for _, f := range p.fields {
		fmt.Fprint(w, p.typ.Field(f.index).Name, ":")
		f.plan.writeLayout(w, open)
	}
	fmt.Fprint(w, ")")
}

// Append appends v, a value of p's type, to dst: the layout signature,
// then the body.
func (p *Plan) Append(dst []byte, v reflect.Value) ([]byte, error) {
	return p.append(binary.LittleEndian.AppendUint16(dst, p.sig), v, 0)
}

// Read decodes into v, a settable value of p's type, what Append
// wrote. Whatever v held is dropped first, so the result does not
// depend on it. A body written under another layout, and bytes left
// over, are errors.
func (p *Plan) Read(data []byte, v reflect.Value) error {
	if len(data) < 2 {
		return errShort
	}
	if sig := binary.LittleEndian.Uint16(data); sig != p.sig {
		return fmt.Errorf("msg: layout signature %#x, %s has %#x: not written from this type", sig, p.typ, p.sig)
	}
	v.SetZero()
	r := newReader(data[2:])
	if err := p.read(&r, v, 0); err != nil {
		return err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("msg: %d trailing bytes after a %s", len(r.b), p.typ)
	}
	return nil
}

// append appends v, a value of p's type, to dst.
func (p *Plan) append(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, errDepth
	}
	var err error
	switch p.kind {
	case reflect.Bool:
		return appendBool(dst, v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendZigzag(dst, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return AppendUvarint(dst, v.Uint()), nil
	case reflect.Float32:
		return appendFloat32(dst, float32(v.Float())), nil
	case reflect.Float64:
		return appendFloat64(dst, v.Float()), nil
	case reflect.String:
		return AppendString(dst, v.String()), nil
	case reflect.Interface:
		return appendValue(dst, v.Interface(), depth+1)
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, 0), nil
		}
		return p.elem.append(append(dst, 1), v.Elem(), depth+1)
	case reflect.Slice:
		if p.elem.kind == reflect.Uint8 {
			return AppendBytes(dst, v.Bytes()), nil
		}
		fallthrough
	case reflect.Array:
		n := v.Len()
		dst = AppendUvarint(dst, uint64(n))
		for i := 0; i < n; i++ {
			if dst, err = p.elem.append(dst, v.Index(i), depth+1); err != nil {
				return nil, at(err, "["+strconv.Itoa(i)+"]")
			}
		}
		return dst, nil
	case reflect.Map:
		return p.appendMap(dst, v, depth)
	case reflect.Struct:
		dst = AppendUvarint(dst, uint64(len(p.fields)))
		for _, f := range p.fields {
			if dst, err = f.plan.append(dst, v.Field(f.index), depth); err != nil {
				return nil, at(err, "."+p.typ.Field(f.index).Name)
			}
		}
		return dst, nil
	}
	panic("msg: plan compiled for unsupported kind " + p.kind.String())
}

// appendMap writes the entries in ascending order of their encoded
// keys, so that equal maps give equal bytes whatever the iteration
// order. Each entry is encoded behind dst's end as the map yields it,
// through one key and one value holder for all of them, and the entries
// are then moved into place by their key bytes.
func (p *Plan) appendMap(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	n := v.Len()
	dst = AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst, nil
	}
	type entry struct{ start, key, end int } // offsets in dst
	entries := make([]entry, 0, n)
	start := len(dst)
	k, e := reflect.New(p.key.typ).Elem(), reflect.New(p.elem.typ).Elem()
	var err error
	for it := v.MapRange(); it.Next(); {
		k.SetIterKey(it)
		e.SetIterValue(it)
		x := entry{start: len(dst)}
		if dst, err = p.key.append(dst, k, depth+1); err != nil {
			return nil, err
		}
		x.key = len(dst)
		if dst, err = p.elem.append(dst, e, depth+1); err != nil {
			return nil, at(err, fmt.Sprintf("[key %v]", k))
		}
		x.end = len(dst)
		entries = append(entries, x)
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return bytes.Compare(dst[a.start:a.key], dst[b.start:b.key])
	})
	end := len(dst)
	for _, x := range entries {
		dst = append(dst, dst[x.start:x.end]...)
	}
	return append(dst[:start], dst[end:]...), nil
}

// read decodes one value of p's type from r into v, which must be
// settable and zero.
func (p *Plan) read(r *reader, v reflect.Value, depth int) error {
	if depth > maxDepth {
		return errDepth
	}
	switch p.kind {
	case reflect.Bool:
		b, err := r.bool()
		v.SetBool(b)
		return err
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, err := r.zigzag()
		if err == nil && v.OverflowInt(x) {
			return fmt.Errorf("%d overflows %s", x, p.typ)
		}
		v.SetInt(x)
		return err
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x, err := r.uvarint()
		if err == nil && v.OverflowUint(x) {
			return fmt.Errorf("%d overflows %s", x, p.typ)
		}
		v.SetUint(x)
		return err
	case reflect.Float32:
		f, err := r.float32()
		v.SetFloat(float64(f))
		return err
	case reflect.Float64:
		f, err := r.float64()
		v.SetFloat(f)
		return err
	case reflect.String:
		s, err := r.string()
		v.SetString(s)
		return err
	case reflect.Interface:
		x, err := r.value(depth + 1)
		if err != nil || x == nil {
			return err
		}
		xv := reflect.ValueOf(x)
		if !xv.Type().AssignableTo(p.typ) {
			return fmt.Errorf("%s is not assignable to %s", xv.Type(), p.typ)
		}
		v.Set(xv)
		return nil
	case reflect.Pointer:
		set, err := r.bool()
		if err != nil || !set {
			return err
		}
		e := reflect.New(p.typ.Elem())
		v.Set(e)
		return p.elem.read(r, e.Elem(), depth+1)
	case reflect.Slice:
		if p.elem.kind == reflect.Uint8 {
			b, err := r.bytes()
			v.SetBytes(b)
			return err
		}
		n, err := r.count(p.elem.min)
		if err != nil || n == 0 {
			return err
		}
		v.Set(reflect.MakeSlice(p.typ, n, n))
		return p.readElems(r, v, n, depth)
	case reflect.Array:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n != uint64(v.Len()) {
			return fmt.Errorf("%d elements on the wire, %s has %d", n, p.typ, v.Len())
		}
		return p.readElems(r, v, v.Len(), depth)
	case reflect.Map:
		return p.readMap(r, v, depth)
	case reflect.Struct:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n != uint64(len(p.fields)) {
			return fmt.Errorf("%d fields on the wire, %s has %d exported", n, p.typ, len(p.fields))
		}
		for _, f := range p.fields {
			if err := f.plan.read(r, v.Field(f.index), depth); err != nil {
				return at(err, "."+p.typ.Field(f.index).Name)
			}
		}
		return nil
	}
	panic("msg: plan compiled for unsupported kind " + p.kind.String())
}

func (p *Plan) readElems(r *reader, v reflect.Value, n, depth int) error {
	for i := 0; i < n; i++ {
		if err := p.elem.read(r, v.Index(i), depth+1); err != nil {
			return at(err, "["+strconv.Itoa(i)+"]")
		}
	}
	return nil
}

func (p *Plan) readMap(r *reader, v reflect.Value, depth int) error {
	n, err := r.count(p.key.min + p.elem.min)
	if err != nil || n == 0 {
		return err
	}
	m := reflect.MakeMapWithSize(p.typ, n)
	v.Set(m)
	// SetMapIndex copies the pair in, so one holder each serves every entry.
	k, e := reflect.New(p.key.typ).Elem(), reflect.New(p.elem.typ).Elem()
	var prev []byte
	for i := 0; i < n; i++ {
		before := r.b
		if err := p.key.read(r, k, depth+1); err != nil {
			return at(err, "key "+strconv.Itoa(i))
		}
		enc := before[:len(before)-len(r.b)]
		if i > 0 && bytes.Compare(enc, prev) <= 0 {
			return fmt.Errorf("map key %v: not in ascending order", k)
		}
		prev = enc
		e.SetZero()
		if err := p.elem.read(r, e, depth+1); err != nil {
			return at(err, fmt.Sprintf("[key %v]", k))
		}
		m.SetMapIndex(k, e)
	}
	return nil
}

// A pathError is a failure inside a value and the path to it. Every
// level the failure passes on the way out adds its step to this one
// error, up to maxSteps of them, so a hostile stream nested maxDepth
// deep costs little more to reject than to read — wrapping the error
// anew at each level would build n messages of up to n steps.
type pathError struct {
	steps []string // innermost first
	cut   bool     // steps beyond maxSteps were dropped
	err   error
}

const maxSteps = 32

func (e *pathError) Error() string {
	var b strings.Builder
	if e.cut {
		b.WriteString("…: ")
	}
	for i := len(e.steps) - 1; i >= 0; i-- {
		b.WriteString(e.steps[i])
		b.WriteString(": ")
	}
	b.WriteString(e.err.Error())
	return b.String()
}

func (e *pathError) Unwrap() error { return e.err }

// at adds step outside the path err already has.
func at(err error, step string) error {
	e, ok := err.(*pathError)
	if !ok {
		e = &pathError{err: err}
	}
	if e.cut = len(e.steps) == maxSteps; !e.cut {
		e.steps = append(e.steps, step)
	}
	return e
}
