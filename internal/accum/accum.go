package accum

import (
	"errors"
	"fmt"
	"math"

	"gsqlgo/internal/value"
)

// maxReplication caps the replication of inputs into order-sensitive
// accumulators when a binding carries a large multiplicity. Queries in
// the tractable class never hit this (they may not use such types).
const maxReplication = 1 << 20

// ErrReplication reports an order-sensitive accumulator receiving an
// input with a multiplicity too large to replicate.
var ErrReplication = errors.New("accum: multiplicity too large for order-sensitive accumulator")

// Accumulator is a mutable accumulator instance.
//
// Input implements "+=" with an explicit multiplicity mult >= 1: the
// effect must equal mult repetitions of a plain input (Appendix A's
// multiplicity shortcut makes this a single O(1)-ish operation for
// order-invariant types). Assign implements "=". Merge folds another
// instance of the same spec into this one (parallel reduce). Value
// snapshots the internal value. Clone deep-copies.
type Accumulator interface {
	Spec() *Spec
	Input(v value.Value, mult uint64) error
	Assign(v value.Value) error
	Merge(other Accumulator) error
	Value() value.Value
	Clone() Accumulator
}

// New creates an accumulator with its default ("empty") internal
// value: 0 for Sum/Avg, empty collections, false for Or, true for And,
// and "no value yet" for Min/Max.
func New(s *Spec) (Accumulator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindSum:
		if s.Elem == value.KindString {
			return &sumString{spec: s}, nil
		}
		return &sumNum{spec: s}, nil
	case KindMin, KindMax:
		return &minMax{spec: s, max: s.Kind == KindMax}, nil
	case KindAvg:
		return &avg{spec: s}, nil
	case KindOr:
		return &boolAcc{spec: s}, nil
	case KindAnd:
		return &boolAcc{spec: s, val: true}, nil
	case KindBitwiseAnd:
		return &bitwise{spec: s, val: ^int64(0)}, nil
	case KindBitwiseOr:
		return &bitwise{spec: s}, nil
	case KindSet:
		return &set{spec: s, elems: map[string]setEntry{}}, nil
	case KindBag:
		return &bag{spec: s, elems: map[string]bagEntry{}}, nil
	case KindList, KindArray:
		return &list{spec: s}, nil
	case KindMap:
		return &mapAcc{spec: s, entries: map[string]*mapEntry{}}, nil
	case KindHeap:
		return newHeap(s), nil
	case KindGroupBy:
		return &groupBy{spec: s, groups: map[string]*group{}}, nil
	case KindCustom:
		c, _ := lookupCustom(s.CustomName)
		return c.New(s), nil
	default:
		return nil, fmt.Errorf("accum: unknown accumulator kind %d", s.Kind)
	}
}

// MustNew is New for trusted specs.
func MustNew(s *Spec) Accumulator {
	a, err := New(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Size reports how many elements (lists, heaps, sets) or entries
// (bags, maps, group-bys) a.Value() holds, counted in the container
// instead of materialising and sorting that value. ok is false for an
// accumulator that is not a container, and for a keyed container
// holding a key that is not value.KeyExact: Value's Compare-based
// dedup could merge entries Key keeps apart there, so the caller must
// count a.Value() itself.
func Size(a Accumulator) (n int, ok bool) {
	switch a := a.(type) {
	case *list:
		return len(a.elems), true
	case *heap:
		return len(a.elems), true
	case *set:
		return exactLen(a.elems, func(e setEntry) value.Value { return e.v })
	case *bag:
		return exactLen(a.elems, func(e bagEntry) value.Value { return e.v })
	case *mapAcc:
		return exactLen(a.entries, func(e *mapEntry) value.Value { return e.key })
	case *groupBy:
		return exactLen(a.groups, func(g *group) value.Value { return value.NewTuple(g.keys) })
	}
	return 0, false
}

// exactLen is len(m) when the key value of every entry is KeyExact.
func exactLen[E any](m map[string]E, key func(E) value.Value) (int, bool) {
	for _, e := range m {
		if !key(e).KeyExact() {
			return 0, false
		}
	}
	return len(m), true
}

func mismatch(s *Spec, v value.Value) error {
	return fmt.Errorf("accum: %s cannot accept input of kind %s", s, v.Kind())
}

func mergeMismatch(s *Spec, other Accumulator) error {
	return fmt.Errorf("accum: cannot merge %s into %s", other.Spec(), s)
}

// numericInput extracts a float from a numeric input.
func numericInput(s *Spec, v value.Value) (float64, error) {
	f, ok := v.AsFloat()
	if !ok {
		return 0, mismatch(s, v)
	}
	return f, nil
}

// ---- SumAccum over numerics -------------------------------------------------

type sumNum struct {
	spec *Spec
	// Exact integer sums stay in i while Elem is int; float sums in f.
	i int64
	f float64
}

func (a *sumNum) Spec() *Spec { return a.spec }

func (a *sumNum) Input(v value.Value, mult uint64) error {
	if a.spec.Elem == value.KindInt {
		iv, ok := v.AsInt()
		if !ok || v.Kind() == value.KindFloat {
			return mismatch(a.spec, v)
		}
		a.i += iv * int64(mult)
		return nil
	}
	f, err := numericInput(a.spec, v)
	if err != nil {
		return err
	}
	a.f += f * float64(mult)
	return nil
}

func (a *sumNum) Assign(v value.Value) error {
	if a.spec.Elem == value.KindInt {
		iv, ok := v.AsInt()
		if !ok || v.Kind() == value.KindFloat {
			return mismatch(a.spec, v)
		}
		a.i = iv
		return nil
	}
	f, err := numericInput(a.spec, v)
	if err != nil {
		return err
	}
	a.f = f
	return nil
}

func (a *sumNum) Merge(other Accumulator) error {
	o, ok := other.(*sumNum)
	if !ok || o.spec.Elem != a.spec.Elem {
		return mergeMismatch(a.spec, other)
	}
	a.i += o.i
	a.f += o.f
	return nil
}

func (a *sumNum) Value() value.Value {
	if a.spec.Elem == value.KindInt {
		return value.NewInt(a.i)
	}
	return value.NewFloat(a.f)
}

func (a *sumNum) Clone() Accumulator { c := *a; return &c }

// ---- SumAccum<string> (order-sensitive concatenation) ----------------------

type sumString struct {
	spec *Spec
	s    string
}

func (a *sumString) Spec() *Spec { return a.spec }

func (a *sumString) Input(v value.Value, mult uint64) error {
	if v.Kind() != value.KindString {
		return mismatch(a.spec, v)
	}
	if mult > maxReplication {
		return ErrReplication
	}
	for i := uint64(0); i < mult; i++ {
		a.s += v.Str()
	}
	return nil
}

func (a *sumString) Assign(v value.Value) error {
	if v.Kind() != value.KindString {
		return mismatch(a.spec, v)
	}
	a.s = v.Str()
	return nil
}

func (a *sumString) Merge(other Accumulator) error {
	o, ok := other.(*sumString)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	a.s += o.s
	return nil
}

func (a *sumString) Value() value.Value { return value.NewString(a.s) }

func (a *sumString) Clone() Accumulator { c := *a; return &c }

// ---- Min/MaxAccum -----------------------------------------------------------

type minMax struct {
	spec *Spec
	max  bool
	has  bool
	val  value.Value
}

func (a *minMax) Spec() *Spec { return a.spec }

// emptyExtreme is the value reported before any input: the identity of
// the combiner (GSQL reports type extremes for numeric Min/Max).
func (a *minMax) emptyExtreme() value.Value {
	switch a.spec.Elem {
	case value.KindInt:
		if a.max {
			return value.NewInt(math.MinInt64)
		}
		return value.NewInt(math.MaxInt64)
	case value.KindFloat:
		if a.max {
			return value.NewFloat(math.Inf(-1))
		}
		return value.NewFloat(math.Inf(1))
	default:
		return value.Null
	}
}

func (a *minMax) accepts(v value.Value) bool {
	if v.Kind() == a.spec.Elem {
		return true
	}
	// ints flow into float accumulators
	return a.spec.Elem == value.KindFloat && v.Kind() == value.KindInt
}

func (a *minMax) Input(v value.Value, mult uint64) error {
	if !a.accepts(v) {
		return mismatch(a.spec, v)
	}
	if !a.has {
		a.has = true
		a.val = v
		return nil
	}
	if a.max {
		a.val = value.MaxOf(a.val, v)
	} else {
		a.val = value.MinOf(a.val, v)
	}
	return nil
}

func (a *minMax) Assign(v value.Value) error {
	if !a.accepts(v) {
		return mismatch(a.spec, v)
	}
	a.has = true
	a.val = v
	return nil
}

func (a *minMax) Merge(other Accumulator) error {
	o, ok := other.(*minMax)
	if !ok || o.max != a.max || o.spec.Elem != a.spec.Elem {
		return mergeMismatch(a.spec, other)
	}
	if o.has {
		return a.Input(o.val, 1)
	}
	return nil
}

func (a *minMax) Value() value.Value {
	if !a.has {
		return a.emptyExtreme()
	}
	return a.val
}

func (a *minMax) Clone() Accumulator { c := *a; return &c }

// ---- AvgAccum ---------------------------------------------------------------

// avg keeps (sum, count) internally, making the average order- and
// multiplicity-shortcut-invariant, exactly as the paper describes.
type avg struct {
	spec  *Spec
	sum   float64
	count uint64
}

func (a *avg) Spec() *Spec { return a.spec }

func (a *avg) Input(v value.Value, mult uint64) error {
	f, err := numericInput(a.spec, v)
	if err != nil {
		return err
	}
	a.sum += f * float64(mult)
	a.count += mult
	return nil
}

func (a *avg) Assign(v value.Value) error {
	f, err := numericInput(a.spec, v)
	if err != nil {
		return err
	}
	a.sum, a.count = f, 1
	return nil
}

func (a *avg) Merge(other Accumulator) error {
	o, ok := other.(*avg)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	a.sum += o.sum
	a.count += o.count
	return nil
}

func (a *avg) Value() value.Value {
	if a.count == 0 {
		return value.NewFloat(0)
	}
	return value.NewFloat(a.sum / float64(a.count))
}

func (a *avg) Clone() Accumulator { c := *a; return &c }

// ---- Or/AndAccum ------------------------------------------------------------

type boolAcc struct {
	spec *Spec
	val  bool
}

func (a *boolAcc) Spec() *Spec { return a.spec }

func (a *boolAcc) Input(v value.Value, mult uint64) error {
	if v.Kind() != value.KindBool {
		return mismatch(a.spec, v)
	}
	if a.spec.Kind == KindOr {
		a.val = a.val || v.Bool()
	} else {
		a.val = a.val && v.Bool()
	}
	return nil
}

func (a *boolAcc) Assign(v value.Value) error {
	if v.Kind() != value.KindBool {
		return mismatch(a.spec, v)
	}
	a.val = v.Bool()
	return nil
}

func (a *boolAcc) Merge(other Accumulator) error {
	o, ok := other.(*boolAcc)
	if !ok || o.spec.Kind != a.spec.Kind {
		return mergeMismatch(a.spec, other)
	}
	// Merge folds the other's value in with the combiner. The neutral
	// element of each combiner makes merging untouched deltas a no-op.
	return a.Input(value.NewBool(o.val), 1)
}

func (a *boolAcc) Value() value.Value { return value.NewBool(a.val) }

func (a *boolAcc) Clone() Accumulator { c := *a; return &c }

// ---- Bitwise accumulators ----------------------------------------------------

// bitwise folds integer inputs with & (identity ^0) or | (identity 0),
// TigerGraph's BitwiseAnd/BitwiseOrAccum. Both combiners are
// commutative, associative and idempotent, so multiplicity is
// irrelevant and the types sit inside the tractable class.
type bitwise struct {
	spec *Spec
	val  int64
}

func (a *bitwise) Spec() *Spec { return a.spec }

func (a *bitwise) Input(v value.Value, mult uint64) error {
	if v.Kind() != value.KindInt {
		return mismatch(a.spec, v)
	}
	if a.spec.Kind == KindBitwiseAnd {
		a.val &= v.Int()
	} else {
		a.val |= v.Int()
	}
	return nil
}

func (a *bitwise) Assign(v value.Value) error {
	if v.Kind() != value.KindInt {
		return mismatch(a.spec, v)
	}
	a.val = v.Int()
	return nil
}

func (a *bitwise) Merge(other Accumulator) error {
	o, ok := other.(*bitwise)
	if !ok || o.spec.Kind != a.spec.Kind {
		return mergeMismatch(a.spec, other)
	}
	return a.Input(value.NewInt(o.val), 1)
}

func (a *bitwise) Value() value.Value { return value.NewInt(a.val) }

func (a *bitwise) Clone() Accumulator { c := *a; return &c }
