package value

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "null"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
		{NewInt(-42), KindInt, "-42"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("abc"), KindString, "abc"},
		{NewDatetime(0), KindDatetime, "1970-01-01 00:00:00"},
		{NewVertex(7), KindVertex, "vertex(7)"},
		{NewEdge(9), KindEdge, "edge(9)"},
		{NewTuple([]Value{NewInt(1), NewString("x")}), KindTuple, "(1, x)"},
		{NewList([]Value{NewInt(2), NewInt(1)}), KindList, "[2, 1]"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v: got %s want %s", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String: got %q want %q", got, c.str)
		}
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool payload mismatch")
	}
	if NewInt(5).Int() != 5 || NewFloat(1.5).Float() != 1.5 {
		t.Error("numeric payload mismatch")
	}
	if NewString("s").Str() != "s" || NewDatetime(11).Datetime() != 11 {
		t.Error("string/datetime payload mismatch")
	}
	if NewVertex(3).VertexID() != 3 || NewEdge(4).EdgeID() != 4 {
		t.Error("graph ref payload mismatch")
	}
}

func TestSetCanonicalization(t *testing.T) {
	s := NewSet([]Value{NewInt(3), NewInt(1), NewInt(3), NewInt(2), NewInt(1)})
	want := NewList([]Value{NewInt(1), NewInt(2), NewInt(3)})
	if got := NewList(s.Elems()); !Equal(got, want) {
		t.Fatalf("set canonical form: got %v want %v", got, want)
	}
}

func TestMapCanonicalization(t *testing.T) {
	m := NewMap([]Pair{
		{NewString("b"), NewInt(2)},
		{NewString("a"), NewInt(1)},
		{NewString("b"), NewInt(3)}, // duplicate key keeps last value
	})
	ps := m.Pairs()
	if len(ps) != 2 {
		t.Fatalf("map size: got %d want 2", len(ps))
	}
	if ps[0].Key.Str() != "a" || ps[0].Val.Int() != 1 {
		t.Errorf("first pair: got %v=%v", ps[0].Key, ps[0].Val)
	}
	if ps[1].Key.Str() != "b" || ps[1].Val.Int() != 3 {
		t.Errorf("second pair: got %v=%v", ps[1].Key, ps[1].Val)
	}
}

func TestNumericCrossKindEquality(t *testing.T) {
	if !Equal(NewInt(1), NewFloat(1.0)) {
		t.Error("1 == 1.0 expected")
	}
	if Compare(NewInt(2), NewFloat(2.5)) != -1 {
		t.Error("2 < 2.5 expected")
	}
	if NewInt(1).Key() != NewFloat(1.0).Key() {
		t.Error("keys of equal numerics must agree")
	}
	if NewInt(1).Key() == NewFloat(1.25).Key() {
		t.Error("distinct numerics must have distinct keys")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{NewBool(true), NewInt(1), NewFloat(-0.5), NewString("x"), NewList(nil)}
	falsy := []Value{Null, NewBool(false), NewInt(0), NewFloat(0), NewString("")}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(NewInt(2), NewInt(3))); got.Int() != 5 {
		t.Errorf("2+3: %v", got)
	}
	if got := mustV(Add(NewInt(2), NewFloat(0.5))); got.Float() != 2.5 {
		t.Errorf("2+0.5: %v", got)
	}
	if got := mustV(Add(NewString("a"), NewString("b"))); got.Str() != "ab" {
		t.Errorf("string concat: %v", got)
	}
	if got := mustV(Sub(NewDatetime(100), NewDatetime(40))); got.Int() != 60 {
		t.Errorf("datetime diff: %v", got)
	}
	if got := mustV(Mul(NewInt(4), NewInt(5))); got.Int() != 20 {
		t.Errorf("4*5: %v", got)
	}
	if got := mustV(Div(NewInt(1), NewInt(2))); got.Float() != 0.5 {
		t.Errorf("1/2: %v", got)
	}
	if got := mustV(IntDiv(NewInt(7), NewInt(2))); got.Int() != 3 {
		t.Errorf("7 div 2: %v", got)
	}
	if got := mustV(Mod(NewInt(7), NewInt(3))); got.Int() != 1 {
		t.Errorf("7%%3: %v", got)
	}
	if got := mustV(Neg(NewFloat(2.5))); got.Float() != -2.5 {
		t.Errorf("-2.5: %v", got)
	}
	if got := mustV(Abs(NewInt(-9))); got.Int() != 9 {
		t.Errorf("abs(-9): %v", got)
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("int division by zero must error")
	}
	if _, err := Add(NewBool(true), NewInt(1)); err == nil {
		t.Error("bool+int must be a type error")
	}
}

// randomValue builds an arbitrary value of bounded depth for property
// tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(10)
	if depth <= 0 && k >= 7 {
		k = r.Intn(7)
	}
	switch k {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 0)
	case 2:
		return NewInt(int64(r.Intn(2001) - 1000))
	case 3:
		return NewFloat(float64(r.Intn(2001)-1000) / 4)
	case 4:
		return NewString(string(rune('a' + r.Intn(26))))
	case 5:
		return NewDatetime(int64(r.Intn(1 << 20)))
	case 6:
		return NewVertex(int64(r.Intn(100)))
	case 7:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return NewTuple(elems)
	case 8:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return NewList(elems)
	default:
		n := r.Intn(4)
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{randomValue(r, depth-1), randomValue(r, depth-1)}
		}
		return NewMap(pairs)
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	anti := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 2), randomValue(r, 2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(anti, cfg); err != nil {
		t.Error(err)
	}
	// Reflexivity: Compare(a,a) == 0.
	refl := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomValue(r, 2)
		return Compare(a, a) == 0
	}
	if err := quick.Check(refl, cfg); err != nil {
		t.Error(err)
	}
	// Transitivity via sortedness check.
	trans := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := make([]Value, 8)
		for i := range vs {
			vs[i] = randomValue(r, 2)
		}
		sort.Slice(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
		return sort.SliceIsSorted(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
	}
	if err := quick.Check(trans, cfg); err != nil {
		t.Error(err)
	}
}

func TestKeyConsistentWithEqual(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 2), randomValue(r, 2)
		if Equal(a, b) {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestMinMaxOf(t *testing.T) {
	a, b := NewInt(1), NewInt(2)
	if !Equal(MinOf(a, b), a) || !Equal(MaxOf(a, b), b) {
		t.Error("MinOf/MaxOf order wrong")
	}
}

func TestFloatKeyNonInteger(t *testing.T) {
	// Non-integer floats keep full precision in keys.
	a := NewFloat(1.5)
	b := NewFloat(math.Nextafter(1.5, 2))
	if a.Key() == b.Key() {
		t.Error("adjacent distinct floats must have distinct keys")
	}
}

// refValue is the oracle for Value: the original 88-byte layout, one Go
// field per payload, with the package's functions over it copied
// verbatim under ref-prefixed names. FuzzValueModel builds every value
// through both and requires them to agree, so the packed layout is held
// to the semantics of the plain one.
type refPair struct {
	Key refValue
	Val refValue
}

type refValue struct {
	kind  Kind
	i     int64      // bool (0/1), int, datetime, vertex id, edge id
	f     float64    // float payload
	s     string     // string payload
	elems []refValue // tuple/list/set payload
	pairs []refPair  // map payload
}

var refNull = refValue{}

func refNewBool(b bool) refValue {
	var i int64
	if b {
		i = 1
	}
	return refValue{kind: KindBool, i: i}
}

func refNewInt(i int64) refValue { return refValue{kind: KindInt, i: i} }

func refNewFloat(f float64) refValue { return refValue{kind: KindFloat, f: f} }

func refNewString(s string) refValue { return refValue{kind: KindString, s: s} }

func refNewDatetime(unixSec int64) refValue { return refValue{kind: KindDatetime, i: unixSec} }

func refNewVertex(id int64) refValue { return refValue{kind: KindVertex, i: id} }

func refNewEdge(id int64) refValue { return refValue{kind: KindEdge, i: id} }

func refNewTuple(fields []refValue) refValue { return refValue{kind: KindTuple, elems: fields} }

func refNewList(elems []refValue) refValue { return refValue{kind: KindList, elems: elems} }

func refNewSet(elems []refValue) refValue {
	sort.Slice(elems, func(i, j int) bool { return refLess(elems[i], elems[j]) })
	out := elems[:0]
	for i, e := range elems {
		if i == 0 || !refEqual(e, elems[i-1]) {
			out = append(out, e)
		}
	}
	return refValue{kind: KindSet, elems: out}
}

func refNewMap(pairs []refPair) refValue {
	sort.SliceStable(pairs, func(i, j int) bool { return refLess(pairs[i].Key, pairs[j].Key) })
	out := pairs[:0]
	for i, p := range pairs {
		if i > 0 && refEqual(p.Key, out[len(out)-1].Key) {
			out[len(out)-1] = p
			continue
		}
		out = append(out, p)
	}
	return refValue{kind: KindMap, pairs: out}
}

func (v refValue) Kind() Kind { return v.kind }

func (v refValue) IsNull() bool { return v.kind == KindNull }

func (v refValue) Bool() bool {
	v.mustBe(KindBool)
	return v.i != 0
}

func (v refValue) Int() int64 {
	v.mustBe(KindInt)
	return v.i
}

func (v refValue) Float() float64 {
	v.mustBe(KindFloat)
	return v.f
}

func (v refValue) Str() string {
	v.mustBe(KindString)
	return v.s
}

func (v refValue) Datetime() int64 {
	v.mustBe(KindDatetime)
	return v.i
}

func (v refValue) VertexID() int64 {
	v.mustBe(KindVertex)
	return v.i
}

func (v refValue) EdgeID() int64 {
	v.mustBe(KindEdge)
	return v.i
}

func (v refValue) Elems() []refValue {
	switch v.kind {
	case KindTuple, KindList, KindSet:
		return v.elems
	}
	panic(fmt.Sprintf("value: Elems on %s", v.kind))
}

func (v refValue) Pairs() []refPair {
	v.mustBe(KindMap)
	return v.pairs
}

func (v refValue) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s payload requested from %s value", k, v.kind))
	}
}

func (v refValue) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

func (v refValue) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindDatetime:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

func (v refValue) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindDatetime:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	}
	return 0, false
}

func (v *refValue) TryInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i, true
}

func (v *refValue) TryFloat() (float64, bool) {
	if v.kind != KindFloat {
		return 0, false
	}
	return v.f, true
}

func (v refValue) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.i != 0
	case KindInt, KindDatetime:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	case KindNull:
		return false
	default:
		return true
	}
}

func refEqual(a, b refValue) bool { return refCompare(a, b) == 0 }

func refLess(a, b refValue) bool { return refCompare(a, b) < 0 }

func refCompare(a, b refValue) int {
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		// Exact int/int comparison avoids float rounding.
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
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
	case KindBool, KindInt, KindDatetime, KindVertex, KindEdge:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindTuple, KindList, KindSet:
		return refCompareSlices(a.elems, b.elems)
	case KindMap:
		n := len(a.pairs)
		if len(b.pairs) < n {
			n = len(b.pairs)
		}
		for i := 0; i < n; i++ {
			if c := refCompare(a.pairs[i].Key, b.pairs[i].Key); c != 0 {
				return c
			}
			if c := refCompare(a.pairs[i].Val, b.pairs[i].Val); c != 0 {
				return c
			}
		}
		switch {
		case len(a.pairs) < len(b.pairs):
			return -1
		case len(a.pairs) > len(b.pairs):
			return 1
		}
		return 0
	default:
		return 0
	}
}

func refCompareSlices(a, b []refValue) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := refCompare(a[i], b[i]); c != 0 {
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

func (v refValue) Key() string {
	var buf [64]byte
	return string(v.AppendKey(buf[:0]))
}

func (v refValue) AppendKey(b []byte) []byte {
	if v.kind == KindFloat && v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && v.f >= -1<<62 && v.f <= 1<<62 {
		v = refNewInt(int64(v.f))
	}
	b = append(b, byte('A'+v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt, KindDatetime, KindVertex, KindEdge:
		b = strconv.AppendInt(b, v.i, 36)
	case KindFloat:
		b = strconv.AppendUint(b, math.Float64bits(v.f), 36)
	case KindString:
		b = strconv.AppendInt(b, int64(len(v.s)), 10)
		b = append(b, ':')
		b = append(b, v.s...)
	case KindTuple, KindList, KindSet:
		b = strconv.AppendInt(b, int64(len(v.elems)), 10)
		for _, e := range v.elems {
			b = append(b, '(')
			b = e.AppendKey(b)
			b = append(b, ')')
		}
	case KindMap:
		b = strconv.AppendInt(b, int64(len(v.pairs)), 10)
		for _, p := range v.pairs {
			b = append(b, '[')
			b = p.Key.AppendKey(b)
			b = append(b, '=')
			b = p.Val.AppendKey(b)
			b = append(b, ']')
		}
	}
	return b
}

func (v refValue) KeyExact() bool {
	switch v.kind {
	case KindInt:
		return v.i >= -1<<53 && v.i <= 1<<53
	case KindFloat:
		return !math.IsNaN(v.f)
	case KindTuple, KindList, KindSet:
		for _, e := range v.elems {
			if !e.KeyExact() {
				return false
			}
		}
	case KindMap:
		for _, p := range v.pairs {
			if !p.Key.KeyExact() || !p.Val.KeyExact() {
				return false
			}
		}
	}
	return true
}

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindDatetime:
		return time.Unix(v.i, 0).UTC().Format("2006-01-02 15:04:05")
	case KindVertex:
		return "vertex(" + strconv.FormatInt(v.i, 10) + ")"
	case KindEdge:
		return "edge(" + strconv.FormatInt(v.i, 10) + ")"
	case KindTuple, KindList, KindSet:
		open, close := "[", "]"
		if v.kind == KindTuple {
			open, close = "(", ")"
		} else if v.kind == KindSet {
			open, close = "{", "}"
		}
		parts := make([]string, len(v.elems))
		for i, e := range v.elems {
			parts[i] = e.String()
		}
		return open + strings.Join(parts, ", ") + close
	case KindMap:
		parts := make([]string, len(v.pairs))
		for i, p := range v.pairs {
			parts[i] = p.Key.String() + ": " + p.Val.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}

func refTypeErr(op string, a, b refValue) error {
	return fmt.Errorf("%w: %s %s %s", ErrType, a.Kind(), op, b.Kind())
}

func refAdd(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return refNewInt(a.i + b.i), nil
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return refNewFloat(af + bf), nil
	case a.kind == KindString && b.kind == KindString:
		return refNewString(a.s + b.s), nil
	case a.kind == KindDatetime && b.kind == KindInt:
		return refNewDatetime(a.i + b.i), nil
	case a.kind == KindInt && b.kind == KindDatetime:
		return refNewDatetime(a.i + b.i), nil
	case a.kind == KindList && b.kind == KindList:
		out := make([]refValue, 0, len(a.elems)+len(b.elems))
		out = append(out, a.elems...)
		out = append(out, b.elems...)
		return refNewList(out), nil
	}
	return refNull, refTypeErr("+", a, b)
}

func refSub(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return refNewInt(a.i - b.i), nil
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return refNewFloat(af - bf), nil
	case a.kind == KindDatetime && b.kind == KindDatetime:
		return refNewInt(a.i - b.i), nil
	case a.kind == KindDatetime && b.kind == KindInt:
		return refNewDatetime(a.i - b.i), nil
	}
	return refNull, refTypeErr("-", a, b)
}

func refMul(a, b refValue) (refValue, error) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return refNewInt(a.i * b.i), nil
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return refNewFloat(af * bf), nil
	}
	return refNull, refTypeErr("*", a, b)
}

func refDiv(a, b refValue) (refValue, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return refNull, refTypeErr("/", a, b)
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	if bf == 0 && a.kind == KindInt && b.kind == KindInt {
		return refNull, errors.New("value: integer division by zero")
	}
	return refNewFloat(af / bf), nil
}

func refIntDiv(a, b refValue) (refValue, error) {
	ai, aok := a.AsInt()
	bi, bok := b.AsInt()
	if !aok || !bok {
		return refNull, refTypeErr("div", a, b)
	}
	if bi == 0 {
		return refNull, errors.New("value: integer division by zero")
	}
	return refNewInt(ai / bi), nil
}

func refMod(a, b refValue) (refValue, error) {
	if a.kind != KindInt || b.kind != KindInt {
		return refNull, refTypeErr("%", a, b)
	}
	if b.i == 0 {
		return refNull, errors.New("value: modulo by zero")
	}
	return refNewInt(a.i % b.i), nil
}

func refNeg(a refValue) (refValue, error) {
	switch a.kind {
	case KindInt:
		return refNewInt(-a.i), nil
	case KindFloat:
		return refNewFloat(-a.f), nil
	}
	return refNull, fmt.Errorf("%w: -%s", ErrType, a.Kind())
}

func refAbs(a refValue) (refValue, error) {
	switch a.kind {
	case KindInt:
		if a.i < 0 {
			return refNewInt(-a.i), nil
		}
		return a, nil
	case KindFloat:
		return refNewFloat(math.Abs(a.f)), nil
	}
	return refNull, fmt.Errorf("%w: abs(%s)", ErrType, a.Kind())
}

func refMinOf(a, b refValue) refValue {
	if refCompare(a, b) <= 0 {
		return a
	}
	return b
}

func refMaxOf(a, b refValue) refValue {
	if refCompare(a, b) >= 0 {
		return a
	}
	return b
}
