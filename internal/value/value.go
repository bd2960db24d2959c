// Package value implements the runtime value system of the GSQL
// interpreter: a compact tagged union covering the scalar types of the
// GSQL type system (bool, int, float, string, datetime), graph element
// references (vertex, edge), and the structured values produced by
// collection accumulators (tuple, list, set, map).
//
// A Value is 24 bytes: the kind, one payload word and one pointer.
// Scalars live in the word (floats as their IEEE-754 bits); a string or
// a structured value keeps its length in the word and a pointer to its
// first byte, element or pair, nil when it is empty. Copying a Value
// therefore copies three words, and the GC scans one pointer per value.
// Value is deliberately not comparable, so v == w cannot compile into a
// pointer comparison; compare with Equal.
//
// Values are immutable once constructed. Structured values share their
// backing arrays; Elems and Pairs return slices with cap == len, and
// callers that mutate must copy first.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind discriminates the dynamic type held by a Value.
type Kind uint8

// The kinds of runtime values.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDatetime // seconds since the Unix epoch, UTC
	KindVertex   // graph-global vertex id
	KindEdge     // graph-global edge id
	KindTuple    // fixed-arity heterogeneous sequence
	KindList     // variable-length sequence
	KindSet      // canonically sorted, deduplicated sequence
	KindMap      // canonically sorted key/value pairs
)

// String returns the GSQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDatetime:
		return "datetime"
	case KindVertex:
		return "vertex"
	case KindEdge:
		return "edge"
	case KindTuple:
		return "tuple"
	case KindList:
		return "list"
	case KindSet:
		return "set"
	case KindMap:
		return "map"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Pair is one entry of a map value.
type Pair struct {
	Key Value
	Val Value
}

// Value is a runtime value. The zero Value is the null value.
//
// The payload is split across n and p, and the five accessors below
// read it back. The only uses of unsafe in the module are in this file:
// the constructors take p with unsafe.StringData or unsafe.SliceData,
// and str, elems and pairs rebuild the payload from it with
// unsafe.String or unsafe.Slice. There is no pointer arithmetic.
type Value struct {
	_    [0]func() // makes Value non-comparable: == would compare p, not contents
	kind Kind
	n    uint64         // bool (0/1), int, datetime, vertex id, edge id; float bits; string/element/pair count
	p    unsafe.Pointer // first string byte, element or pair; nil for scalars and empty payloads
}

func (v Value) i() int64       { return int64(v.n) }
func (v Value) f() float64     { return math.Float64frombits(v.n) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }
func (v Value) pairs() []Pair  { return unsafe.Slice((*Pair)(v.p), int(v.n)) }

// elemsValue packs a tuple, list or set payload.
func elemsValue(k Kind, elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: k}
	}
	return Value{kind: k, n: uint64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// Null is the null value.
var Null = Value{}

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) Value {
	if s == "" {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// NewDatetime returns a datetime value from Unix seconds.
func NewDatetime(unixSec int64) Value { return Value{kind: KindDatetime, n: uint64(unixSec)} }

// NewVertex returns a vertex reference for a graph-global vertex id.
func NewVertex(id int64) Value { return Value{kind: KindVertex, n: uint64(id)} }

// NewEdge returns an edge reference for a graph-global edge id.
func NewEdge(id int64) Value { return Value{kind: KindEdge, n: uint64(id)} }

// NewTuple returns a tuple value over the given fields. The slice is
// retained; the caller must not mutate it afterwards.
func NewTuple(fields []Value) Value { return elemsValue(KindTuple, fields) }

// NewList returns a list value. The slice is retained.
func NewList(elems []Value) Value { return elemsValue(KindList, elems) }

// NewSet returns a set value with canonical (sorted, deduplicated)
// element order. The input slice may be reordered in place.
func NewSet(elems []Value) Value {
	sort.Slice(elems, func(i, j int) bool { return Less(elems[i], elems[j]) })
	out := elems[:0]
	for i, e := range elems {
		if i == 0 || !Equal(e, elems[i-1]) {
			out = append(out, e)
		}
	}
	return elemsValue(KindSet, out)
}

// NewMap returns a map value with canonical key order. The input slice
// may be reordered in place. Duplicate keys keep the last value.
func NewMap(pairs []Pair) Value {
	sort.SliceStable(pairs, func(i, j int) bool { return Less(pairs[i].Key, pairs[j].Key) })
	out := pairs[:0]
	for i, p := range pairs {
		if i > 0 && Equal(p.Key, out[len(out)-1].Key) {
			out[len(out)-1] = p
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return Value{kind: KindMap}
	}
	return Value{kind: KindMap, n: uint64(len(out)), p: unsafe.Pointer(unsafe.SliceData(out))}
}

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; it panics for other kinds.
func (v Value) Bool() bool {
	v.mustBe(KindBool)
	return v.i() != 0
}

// Int returns the integer payload; it panics for other kinds.
func (v Value) Int() int64 {
	v.mustBe(KindInt)
	return v.i()
}

// Float returns the floating-point payload; it panics for other kinds.
func (v Value) Float() float64 {
	v.mustBe(KindFloat)
	return v.f()
}

// Str returns the string payload; it panics for other kinds.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.str()
}

// Datetime returns the datetime payload in Unix seconds.
func (v Value) Datetime() int64 {
	v.mustBe(KindDatetime)
	return v.i()
}

// VertexID returns the vertex id payload.
func (v Value) VertexID() int64 {
	v.mustBe(KindVertex)
	return v.i()
}

// EdgeID returns the edge id payload.
func (v Value) EdgeID() int64 {
	v.mustBe(KindEdge)
	return v.i()
}

// Elems returns the elements of a tuple, list or set value, nil when
// there are none. The returned slice has cap == len and must not be
// mutated.
func (v Value) Elems() []Value {
	switch v.kind {
	case KindTuple, KindList, KindSet:
		return v.elems()
	}
	panic(fmt.Sprintf("value: Elems on %s", v.kind))
}

// Pairs returns the entries of a map value in canonical key order, nil
// when there are none. The returned slice has cap == len and must not
// be mutated.
func (v Value) Pairs() []Pair {
	v.mustBe(KindMap)
	return v.pairs()
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s payload requested from %s value", k, v.kind))
	}
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat returns the value as a float64, coercing ints and datetimes.
// The second result is false if the value is not numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindDatetime:
		return float64(v.i()), true
	case KindFloat:
		return v.f(), true
	}
	return 0, false
}

// AsInt returns the value as an int64, truncating floats. The second
// result is false if the value is not numeric.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindDatetime:
		return v.i(), true
	case KindFloat:
		return int64(v.f()), true
	}
	return 0, false
}

// TryInt returns the integer payload iff the kind is exactly int — no
// coercion (AsInt truncates floats; exact fold paths must not). The
// pointer receiver lets callers read a stored value in place without
// copying the full struct.
func (v *Value) TryInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i(), true
}

// TryFloat returns the float payload iff the kind is exactly float —
// the strict counterpart of AsFloat.
func (v *Value) TryFloat() (float64, bool) {
	if v.kind != KindFloat {
		return 0, false
	}
	return v.f(), true
}

// Truthy reports whether the value is considered true in a condition:
// booleans by payload, numbers by non-zero, strings by non-empty, and
// null as false.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt, KindDatetime, KindString:
		return v.n != 0
	case KindFloat:
		return v.f() != 0
	case KindNull:
		return false
	default:
		return true
	}
}

// Equal reports deep equality of two values. Int and float values
// compare numerically across kinds (1 == 1.0).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports a < b under the total order implemented by Compare.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Compare imposes a total order on values. Numeric kinds (int, float)
// compare numerically with each other; otherwise values of different
// kinds order by kind tag. Structured values compare lexicographically.
// Null orders before everything.
func Compare(a, b Value) int {
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		// Exact int/int comparison avoids float rounding.
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i() < b.i():
				return -1
			case a.i() > b.i():
				return 1
			}
			return 0
		}
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool, KindDatetime, KindVertex, KindEdge:
		switch {
		case a.i() < b.i():
			return -1
		case a.i() > b.i():
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindTuple, KindList, KindSet:
		return compareSlices(a.elems(), b.elems())
	case KindMap:
		ap, bp := a.pairs(), b.pairs()
		n := min(len(ap), len(bp))
		for i := 0; i < n; i++ {
			if c := Compare(ap[i].Key, bp[i].Key); c != 0 {
				return c
			}
			if c := Compare(ap[i].Val, bp[i].Val); c != 0 {
				return c
			}
		}
		switch {
		case len(ap) < len(bp):
			return -1
		case len(ap) > len(bp):
			return 1
		}
		return 0
	default:
		return 0
	}
}

func compareSlices(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Key returns a string that is equal for equal values and distinct for
// distinct values, suitable for use as a Go map key (e.g. grouping).
// It is AppendKey's encoding; callers probing a map in a loop should
// append into a reused buffer and look up m[string(buf)] instead, which
// does not allocate.
func (v Value) Key() string {
	var buf [64]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends v's key encoding to b and returns the extended
// slice; it only appends, never writing b[:len(b)]. The encoding is a
// kind tag followed by the payload, length-prefixed where the payload
// is variable, so concatenated keys stay unambiguous. An int-valued
// float within ±2^62 encodes as the KindInt it equals, so 1 and 1.0
// share a key as Compare's numeric cross-kind equality demands.
func (v Value) AppendKey(b []byte) []byte {
	if f := v.f(); v.kind == KindFloat && f == math.Trunc(f) && !math.IsInf(f, 0) && f >= -1<<62 && f <= 1<<62 {
		v = NewInt(int64(f))
	}
	b = append(b, byte('A'+v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt, KindDatetime, KindVertex, KindEdge:
		b = strconv.AppendInt(b, v.i(), 36)
	case KindFloat:
		b = strconv.AppendUint(b, v.n, 36)
	case KindString:
		b = strconv.AppendUint(b, v.n, 10)
		b = append(b, ':')
		b = append(b, v.str()...)
	case KindTuple, KindList, KindSet:
		b = strconv.AppendUint(b, v.n, 10)
		for _, e := range v.elems() {
			b = append(b, '(')
			b = e.AppendKey(b)
			b = append(b, ')')
		}
	case KindMap:
		b = strconv.AppendUint(b, v.n, 10)
		for _, p := range v.pairs() {
			b = append(b, '[')
			b = p.Key.AppendKey(b)
			b = append(b, '=')
			b = p.Val.AppendKey(b)
			b = append(b, ']')
		}
	}
	return b
}

// KeyExact reports whether Key agrees with Equal on v: two KeyExact
// values have equal keys exactly when they are Equal. Key is strictly
// finer than Equal only where Compare's numeric equality is not
// transitive — a NaN (equal to every number) or an int beyond ±2^53
// (equal, once rounded to float64, to a float or int of another key) —
// so v is KeyExact unless it holds one of those anywhere inside it.
func (v Value) KeyExact() bool {
	switch v.kind {
	case KindInt:
		return v.i() >= -1<<53 && v.i() <= 1<<53
	case KindFloat:
		return !math.IsNaN(v.f())
	case KindTuple, KindList, KindSet:
		for _, e := range v.elems() {
			if !e.KeyExact() {
				return false
			}
		}
	case KindMap:
		for _, p := range v.pairs() {
			if !p.Key.KeyExact() || !p.Val.KeyExact() {
				return false
			}
		}
	}
	return true
}

// String renders the value for display (PRINT output, test failures).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.i() != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindDatetime:
		return time.Unix(v.i(), 0).UTC().Format("2006-01-02 15:04:05")
	case KindVertex:
		return "vertex(" + strconv.FormatInt(v.i(), 10) + ")"
	case KindEdge:
		return "edge(" + strconv.FormatInt(v.i(), 10) + ")"
	case KindTuple, KindList, KindSet:
		open, close := "[", "]"
		if v.kind == KindTuple {
			open, close = "(", ")"
		} else if v.kind == KindSet {
			open, close = "{", "}"
		}
		parts := make([]string, v.n)
		for i, e := range v.elems() {
			parts[i] = e.String()
		}
		return open + strings.Join(parts, ", ") + close
	case KindMap:
		parts := make([]string, v.n)
		for i, p := range v.pairs() {
			parts[i] = p.Key.String() + ": " + p.Val.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}
