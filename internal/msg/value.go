// Tagged binary value codec for argument and result lists.
//
// A value stream is self-contained and stateless — no type descriptors,
// no per-connection dictionary — so the bytes a client sends are the
// bytes the server logs and the bytes recovery replays, and decoding
// one stream costs the same whether it is the first or the millionth.
//
// Format (DESIGN.md Section 10, "Value stream"). Integers are uvarints
// (signed ones zig-zag first), floats are fixed-width little-endian
// IEEE bits, "bytes" is a uvarint length plus raw bytes:
//
//	stream = count value*
//	value  = tag body
//
// The tag names the value's dynamic type: one tag per closed-set type
// below, and tagNamed + the registered name for application types.
// Every body is the one the type's plan (plan.go) lays out; only the
// scalars are decoded, and an int encoded, by type switch. Slices and
// maps encode nil and empty alike (count 0) and decode as nil; map
// entries are written in ascending order of their encoded keys, so
// equal values give equal bytes.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

const (
	tagNil byte = iota // a nil interface; never a top-level value
	tagInt
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBool
	tagBytes
	tagStrings
	tagInts
	tagInt64s
	tagFloat64s
	tagMapStringString
	tagMapStringInt
	tagMapStringFloat64
	tagMapStringAny
	tagAnys
	tagNamed // bytes registered name, then the plan's body
)

// maxDepth bounds how deep values may nest through interfaces,
// pointers, slices and maps. It turns a cyclic value into an encode
// error and a hostile stream into a decode error, not a stack overflow.
const maxDepth = 1000

var errDepth = errors.New("value nests deeper than " + strconv.Itoa(maxDepth) + " levels (cyclic?)")

// EncodeAnySlice serializes an argument or result list. The result is
// freshly allocated and owned by the caller.
func EncodeAnySlice(vals []any) ([]byte, error) {
	dst := AppendUvarint(make([]byte, 0, 32), uint64(len(vals)))
	var err error
	for i, v := range vals {
		if v == nil {
			return nil, fmt.Errorf("msg: value %d is untyped nil; pass a typed zero value", i)
		}
		if dst, err = appendValue(dst, v, 0); err != nil {
			return nil, fmt.Errorf("msg: encode value %d: %w", i, err)
		}
	}
	return dst, nil
}

// DecodeAnySlice deserializes an argument or result list. The values
// never alias data.
func DecodeAnySlice(data []byte) ([]any, error) {
	return DecodeAnyInto(nil, data)
}

// DecodeAnyInto is DecodeAnySlice with the caller's scratch: the list
// is built in buf's backing array when it has the room.
func DecodeAnyInto(buf []any, data []byte) ([]any, error) {
	r := newReader(data)
	n, err := r.count(1)
	if err != nil {
		return nil, fmt.Errorf("msg: decode values: %w", err)
	}
	vals := buf[:0]
	if n > cap(buf) {
		vals = make([]any, 0, n)
	}
	for i := 0; i < n; i++ {
		v, err := r.value(0)
		if err != nil {
			return nil, fmt.Errorf("msg: decode value %d: %w", i, err)
		}
		if v == nil {
			return nil, fmt.Errorf("msg: decode value %d: untyped nil", i)
		}
		vals = append(vals, v)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("msg: decode values: %d trailing bytes", len(r.b))
	}
	return vals, nil
}

func appendZigzag(dst []byte, v int64) []byte {
	return AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendFloat32(dst []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendValue appends v in tagged form: an int by type switch, as
// most calls' one argument and result are; anything else is the tag its
// type's plan was filed under (tagNamed and the name for a registered
// type) and the plan's body.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, errDepth
	}
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case int:
		return appendZigzag(append(dst, tagInt), int64(x)), nil
	}
	t := reflect.TypeOf(v)
	p := reg.Load().byType[t]
	if p == nil || p.tag == 0 {
		return nil, fmt.Errorf("type %s is not registered (call RegisterType)", t)
	}
	dst = append(dst, p.tag)
	if p.tag == tagNamed {
		return p.append(AppendString(dst, p.name), reflect.ValueOf(v), depth)
	}
	// A closed-set composite's elements are one level below the value, and
	// its plan's container arm is what counts that level.
	return p.append(dst, reflect.ValueOf(v), depth-1)
}

// reader consumes a value stream front to back. left is how many more
// elements its counts may claim: every element of every list and map,
// at any depth, takes a byte of the stream to itself, so one budget of
// the stream's length for all levels bounds what decoding pre-sizes by
// the input's length, not length × nesting depth.
type reader struct {
	b    []byte
	left int
}

func newReader(data []byte) reader { return reader{data, len(data)} }

func (r *reader) uvarint() (v uint64, err error) {
	v, r.b, err = ConsumeUvarint(r.b)
	return v, err
}

func (r *reader) zigzag() (int64, error) {
	u, err := r.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// intN reads a signed integer that must fit in bits bits.
func (r *reader) intN(bits int) (int64, error) {
	v, err := r.zigzag()
	if err == nil && bits < 64 && v>>(bits-1) != 0 && v>>(bits-1) != -1 {
		return 0, fmt.Errorf("%d overflows int%d", v, bits)
	}
	return v, err
}

func (r *reader) int() (int, error) {
	v, err := r.intN(strconv.IntSize)
	return int(v), err
}

// uintN reads an unsigned integer that must fit in bits bits.
func (r *reader) uintN(bits int) (uint64, error) {
	v, err := r.uvarint()
	if err == nil && bits < 64 && v>>bits != 0 {
		return 0, fmt.Errorf("%d overflows uint%d", v, bits)
	}
	return v, err
}

func (r *reader) float64() (float64, error) {
	if len(r.b) < 8 {
		return 0, errShort
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f, nil
}

func (r *reader) float32() (float32, error) {
	if len(r.b) < 4 {
		return 0, errShort
	}
	f := math.Float32frombits(binary.LittleEndian.Uint32(r.b))
	r.b = r.b[4:]
	return f, nil
}

func (r *reader) string() (s string, err error) {
	s, r.b, err = ConsumeString(r.b)
	return s, err
}

func (r *reader) bytes() (b []byte, err error) {
	b, r.b, err = ConsumeBytes(r.b)
	return b, err
}

func (r *reader) bool() (bool, error) {
	b, rest, err := ConsumeByte(r.b)
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("bool byte %#x", b)
	}
	r.b = rest
	return b == 1, nil
}

// count reads an element count and checks it against the bytes left,
// given that each element takes at least min bytes, and against the
// stream's element budget, which it debits — before the caller
// allocates anything of that size.
func (r *reader) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)/min) || n > uint64(r.left) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left (%d unclaimed)", n, len(r.b), r.left)
	}
	r.left -= int(n)
	return int(n), nil
}

// value reads one tagged value.
func (r *reader) value(depth int) (any, error) {
	if depth > maxDepth {
		return nil, errDepth
	}
	tag, rest, err := ConsumeByte(r.b)
	if err != nil {
		return nil, err
	}
	r.b = rest
	switch tag {
	case tagNil:
		return nil, nil
	case tagInt:
		return r.int()
	case tagInt8:
		v, err := r.intN(8)
		return int8(v), err
	case tagInt16:
		v, err := r.intN(16)
		return int16(v), err
	case tagInt32:
		v, err := r.intN(32)
		return int32(v), err
	case tagInt64:
		return r.zigzag()
	case tagUint:
		v, err := r.uintN(strconv.IntSize)
		return uint(v), err
	case tagUint8:
		v, err := r.uintN(8)
		return uint8(v), err
	case tagUint16:
		v, err := r.uintN(16)
		return uint16(v), err
	case tagUint32:
		v, err := r.uintN(32)
		return uint32(v), err
	case tagUint64:
		return r.uvarint()
	case tagFloat32:
		return r.float32()
	case tagFloat64:
		return r.float64()
	case tagString:
		return r.string()
	case tagBool:
		return r.bool()
	case tagBytes:
		return r.bytes()
	}
	var p *Plan
	if tag == tagNamed {
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		if p = namedPlan(r.b[:n]); p == nil {
			return nil, fmt.Errorf("type %q is not registered (call RegisterType)", r.b[:n])
		}
		r.b = r.b[n:]
	} else if tag < tagNamed {
		p, depth = reg.Load().byTag[tag], depth-1 // as in appendValue
	}
	if p == nil {
		return nil, fmt.Errorf("unknown value tag %#x", tag)
	}
	v := reflect.New(p.typ).Elem()
	if err := p.read(r, v, depth); err != nil {
		if p.tag == tagNamed {
			err = at(err, p.name)
		}
		return nil, err
	}
	return v.Interface(), nil
}
