package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestValueSize pins the packed layout: a kind, one payload word and
// one pointer.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("sizeof(Value) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Pair{}); got != 48 {
		t.Errorf("sizeof(Pair) = %d, want 48", got)
	}
}

// modelDec decodes fuzz input into one value built twice, through the
// package's constructors and through the refValue oracle's: one kind
// byte (all twelve kinds), then that kind's payload — eight bytes for
// numbers, a length byte plus bytes for strings, a count byte plus
// elements for structured kinds, whose nesting depth bounds. Missing
// bytes read as zero, so every input decodes.
type modelDec struct{ data []byte }

func (d *modelDec) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *modelDec) word() uint64 {
	var w [8]byte
	n := copy(w[:], d.data)
	d.data = d.data[n:]
	return binary.LittleEndian.Uint64(w[:])
}

func (d *modelDec) value(depth int) (Value, refValue) {
	k := Kind(d.next() % 12)
	if depth <= 0 && k >= KindTuple {
		k = KindInt
	}
	switch k {
	case KindNull:
		return Null, refNull
	case KindBool:
		b := d.next()&1 == 1
		return NewBool(b), refNewBool(b)
	case KindInt:
		i := int64(d.word())
		return NewInt(i), refNewInt(i)
	case KindFloat:
		f := math.Float64frombits(d.word())
		return NewFloat(f), refNewFloat(f)
	case KindString:
		n := min(int(d.next()%32), len(d.data))
		s := string(d.data[:n])
		d.data = d.data[n:]
		return NewString(s), refNewString(s)
	case KindDatetime:
		i := int64(d.word())
		return NewDatetime(i), refNewDatetime(i)
	case KindVertex:
		i := int64(d.word())
		return NewVertex(i), refNewVertex(i)
	case KindEdge:
		i := int64(d.word())
		return NewEdge(i), refNewEdge(i)
	case KindMap:
		n := int(d.next() % 4)
		pairs, refPairs := make([]Pair, n), make([]refPair, n)
		for i := range pairs {
			pairs[i].Key, refPairs[i].Key = d.value(depth - 1)
			pairs[i].Val, refPairs[i].Val = d.value(depth - 1)
		}
		return NewMap(pairs), refNewMap(refPairs)
	}
	n := int(d.next() % 4)
	elems, refElems := make([]Value, n), make([]refValue, n)
	for i := range elems {
		elems[i], refElems[i] = d.value(depth - 1)
	}
	switch k {
	case KindTuple:
		return NewTuple(elems), refNewTuple(refElems)
	case KindList:
		return NewList(elems), refNewList(refElems)
	}
	return NewSet(elems), refNewSet(refElems)
}

// probe runs f and renders its result, or the panic it raised, so an
// accessor on the wrong kind must panic alike in both layouts. %v
// separates NaN, -0 and 0.
func probe(f func() any) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic: %v", r)
		}
	}()
	return fmt.Sprintf("%v", f())
}

// agree fails t unless v and r are the same value: kind, every
// accessor (panics included), key encodings and rendering, recursing
// into elements and pairs.
func agree(t *testing.T, what string, v Value, r refValue) {
	t.Helper()
	if v.Kind() != r.Kind() {
		t.Fatalf("%s: Kind %s, oracle %s", what, v.Kind(), r.Kind())
	}
	probes := []struct {
		name string
		v, r func() any
	}{
		{"IsNull", func() any { return v.IsNull() }, func() any { return r.IsNull() }},
		{"IsNumeric", func() any { return v.IsNumeric() }, func() any { return r.IsNumeric() }},
		{"Truthy", func() any { return v.Truthy() }, func() any { return r.Truthy() }},
		{"Bool", func() any { return v.Bool() }, func() any { return r.Bool() }},
		{"Int", func() any { return v.Int() }, func() any { return r.Int() }},
		{"Float", func() any { return math.Float64bits(v.Float()) }, func() any { return math.Float64bits(r.Float()) }},
		{"Str", func() any { return v.Str() }, func() any { return r.Str() }},
		{"Datetime", func() any { return v.Datetime() }, func() any { return r.Datetime() }},
		{"VertexID", func() any { return v.VertexID() }, func() any { return r.VertexID() }},
		{"EdgeID", func() any { return v.EdgeID() }, func() any { return r.EdgeID() }},
		{"len(Elems)", func() any { return len(v.Elems()) }, func() any { return len(r.Elems()) }},
		{"len(Pairs)", func() any { return len(v.Pairs()) }, func() any { return len(r.Pairs()) }},
		{"AsFloat", func() any { f, ok := v.AsFloat(); return fmt.Sprint(math.Float64bits(f), ok) }, func() any { f, ok := r.AsFloat(); return fmt.Sprint(math.Float64bits(f), ok) }},
		{"AsInt", func() any { i, ok := v.AsInt(); return fmt.Sprint(i, ok) }, func() any { i, ok := r.AsInt(); return fmt.Sprint(i, ok) }},
		{"TryInt", func() any { i, ok := v.TryInt(); return fmt.Sprint(i, ok) }, func() any { i, ok := r.TryInt(); return fmt.Sprint(i, ok) }},
		{"TryFloat", func() any { f, ok := v.TryFloat(); return fmt.Sprint(math.Float64bits(f), ok) }, func() any { f, ok := r.TryFloat(); return fmt.Sprint(math.Float64bits(f), ok) }},
		{"String", func() any { return v.String() }, func() any { return r.String() }},
		{"Key", func() any { return v.Key() }, func() any { return r.Key() }},
		{"AppendKey", func() any { return string(v.AppendKey([]byte("k|"))) }, func() any { return string(r.AppendKey([]byte("k|"))) }},
		{"KeyExact", func() any { return v.KeyExact() }, func() any { return r.KeyExact() }},
	}
	for _, p := range probes {
		if got, want := probe(p.v), probe(p.r); got != want {
			t.Fatalf("%s: %s = %q, oracle %q", what, p.name, got, want)
		}
	}
	switch v.Kind() {
	case KindTuple, KindList, KindSet:
		es, res := v.Elems(), r.Elems()
		if cap(es) != len(es) {
			t.Fatalf("%s: Elems has cap %d, len %d", what, cap(es), len(es))
		}
		for i := range es {
			agree(t, fmt.Sprintf("%s[%d]", what, i), es[i], res[i])
		}
	case KindMap:
		ps, rps := v.Pairs(), r.Pairs()
		if cap(ps) != len(ps) {
			t.Fatalf("%s: Pairs has cap %d, len %d", what, cap(ps), len(ps))
		}
		for i := range ps {
			agree(t, fmt.Sprintf("%s key %d", what, i), ps[i].Key, rps[i].Key)
			agree(t, fmt.Sprintf("%s val %d", what, i), ps[i].Val, rps[i].Val)
		}
	}
}

// agreeResult compares the outcome of one operation in both layouts:
// the same error text, or agreeing values.
func agreeResult(t *testing.T, what string, v Value, err error, r refValue, refErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, oracle %v", what, err, refErr)
	}
	agree(t, what, v, r)
}

// modelSeed encodes fuzz input for modelDec: each argument is a kind
// followed by its payload (int64 and float64 as their eight bytes, a
// string as its length and bytes, anything else as raw bytes).
func modelSeed(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch x := p.(type) {
		case Kind:
			b = append(b, byte(x))
		case int64:
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		case float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		case string:
			b = append(b, byte(len(x)))
			b = append(b, x...)
		case byte:
			b = append(b, x)
		}
	}
	return b
}

// FuzzValueModel holds the packed Value to the refValue oracle: two
// values decoded from the input are built through both, and every
// accessor, Compare, the key encodings, String, the arithmetic and the
// set/map canonicalisation must agree.
func FuzzValueModel(f *testing.F) {
	seeds := [][]byte{
		modelSeed(KindString, ""),
		modelSeed(KindList, byte(0)),
		modelSeed(KindSet, byte(0)),
		modelSeed(KindMap, byte(0)),
		modelSeed(KindFloat, math.NaN()),
		modelSeed(KindFloat, 0.0),
		modelSeed(KindFloat, math.Copysign(0, -1)),
		modelSeed(KindInt, int64(1<<53+1)),
		modelSeed(KindInt, int64(1<<53-1)),
		modelSeed(KindInt, int64(-1<<53+1)),
		modelSeed(KindInt, int64(-1<<53-1)),
		modelSeed(KindInt, int64(math.MinInt64)),
		modelSeed(KindInt, int64(1<<53)),
		modelSeed(KindInt, int64(-1<<53)),
		modelSeed(KindFloat, float64(1<<53)),
		modelSeed(KindString, "abc"),
		modelSeed(KindList, byte(2), KindString, "twelve bytes", KindFloat, -2.5),
		modelSeed(KindSet, byte(3), KindInt, int64(2), KindFloat, 2.0, KindString, ""),
		modelSeed(KindMap, byte(2), KindString, "b", KindInt, int64(1), KindString, "b", KindMap, byte(0)),
		modelSeed(KindTuple, byte(2), KindVertex, int64(7), KindEdge, int64(-3)),
		modelSeed(KindDatetime, int64(1300000000)),
	}
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		v1, r1 := (&modelDec{a}).value(3)
		v2, r2 := (&modelDec{b}).value(3)
		agree(t, "a", v1, r1)
		agree(t, "b", v2, r2)

		if got, want := Compare(v1, v2), refCompare(r1, r2); got != want {
			t.Fatalf("Compare(%v, %v) = %d, oracle %d", v1, v2, got, want)
		}
		if Equal(v1, v2) != refEqual(r1, r2) || Less(v1, v2) != refLess(r1, r2) {
			t.Fatalf("Equal/Less(%v, %v) disagree with the oracle", v1, v2)
		}
		agree(t, "MinOf", MinOf(v1, v2), refMinOf(r1, r2))
		agree(t, "MaxOf", MaxOf(v1, v2), refMaxOf(r1, r2))
		ops := []struct {
			name string
			op   func(a, b Value) (Value, error)
			ref  func(a, b refValue) (refValue, error)
		}{
			{"Add", Add, refAdd}, {"Sub", Sub, refSub}, {"Mul", Mul, refMul}, {"Div", Div, refDiv},
			{"IntDiv", IntDiv, refIntDiv}, {"Mod", Mod, refMod},
		}
		for _, o := range ops {
			v, err := o.op(v1, v2)
			r, refErr := o.ref(r1, r2)
			agreeResult(t, o.name, v, err, r, refErr)
		}
		v, err := Neg(v1)
		r, refErr := refNeg(r1)
		agreeResult(t, "Neg", v, err, r, refErr)
		v, err = Abs(v1)
		r, refErr = refAbs(r1)
		agreeResult(t, "Abs", v, err, r, refErr)

		// Canonicalisation over values that share payloads.
		agree(t, "NewSet", NewSet([]Value{v2, v1, v2}), refNewSet([]refValue{r2, r1, r2}))
		agree(t, "NewMap", NewMap([]Pair{{v2, v1}, {v1, v2}, {v2, v2}}), refNewMap([]refPair{{r2, r1}, {r1, r2}, {r2, r2}}))
	})
}
