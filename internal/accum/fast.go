package accum

import (
	"gsqlgo/internal/value"
)

// FastOp classifies the scalar accumulator shapes the compiled ACCUM
// kernel can fold without boxing an Accumulator per delta: the
// order-invariant Sum/Min/Max/Avg/Or/And combiners over INT, FLOAT and
// BOOL elements. Everything else (strings, collections, heaps, custom
// accumulators) stays on the boxed Accumulator path, which the kernel
// uses as-is — identical semantics, just without the unboxed shortcut.
type FastOp uint8

// Fast-foldable combiner shapes.
const (
	FastNone FastOp = iota
	FastSumInt
	FastSumFloat
	FastMinInt
	FastMaxInt
	FastMinFloat
	FastMaxFloat
	FastAvg
	FastOr
	FastAnd
)

// ClassifyFast returns the unboxed fold shape for a spec, or FastNone
// when the spec needs the boxed Accumulator path.
func ClassifyFast(s *Spec) FastOp {
	if s == nil || len(s.Keys) > 0 || len(s.Nested) > 0 || s.Tuple != nil {
		return FastNone
	}
	switch s.Kind {
	case KindSum:
		switch s.Elem {
		case value.KindInt:
			return FastSumInt
		case value.KindFloat:
			return FastSumFloat
		}
	case KindMin:
		switch s.Elem {
		case value.KindInt:
			return FastMinInt
		case value.KindFloat:
			return FastMinFloat
		}
	case KindMax:
		switch s.Elem {
		case value.KindInt:
			return FastMaxInt
		case value.KindFloat:
			return FastMaxFloat
		}
	case KindAvg:
		return FastAvg
	case KindOr:
		return FastOr
	case KindAnd:
		return FastAnd
	}
	return FastNone
}

// FastCell is one worker-local unboxed delta: the flattened state of a
// fresh scalar accumulator, folded in place with no interface
// dispatch and no per-delta allocation. Which fields are live depends
// on the FastOp; Min/Max keep the winning value.Value (not a raw
// float) so a MinAccum<float> fed ints reports an int exactly like the
// boxed accumulator does.
type FastCell struct {
	I       int64       // FastSumInt running sum
	F       float64     // FastSumFloat / FastAvg running sum
	N       uint64      // FastAvg input count
	B       bool        // FastOr / FastAnd running fold
	Has     bool        // FastMin* / FastMax*: an input has arrived
	V       value.Value // FastMin* / FastMax*: current extreme
	Touched bool        // any input arrived (untouched cells never merge)
}

// InitFast returns the cell a fresh delta starts from: the combiner's
// identity (notably B=true for And, matching a fresh AndAccum).
func InitFast(op FastOp) FastCell {
	return FastCell{B: op == FastAnd}
}

// FoldFast folds one input into a cell with multiplicity mult,
// accepting and rejecting inputs under exactly the rules of the boxed
// accumulator's Input (same coercions, same error text), so the
// compiled kernel and the interpreter are bit-identical including on
// the error path.
func FoldFast(op FastOp, c *FastCell, s *Spec, v value.Value, mult uint64) error {
	switch op {
	case FastSumInt:
		iv, ok := v.AsInt()
		if !ok || v.Kind() == value.KindFloat {
			return mismatch(s, v)
		}
		c.I += iv * int64(mult)
	case FastSumFloat:
		f, ok := v.AsFloat()
		if !ok {
			return mismatch(s, v)
		}
		c.F += f * float64(mult)
	case FastAvg:
		f, ok := v.AsFloat()
		if !ok {
			return mismatch(s, v)
		}
		c.F += f * float64(mult)
		c.N += mult
	case FastMinInt, FastMaxInt:
		if v.Kind() != value.KindInt {
			return mismatch(s, v)
		}
		foldExtreme(op, c, v)
	case FastMinFloat, FastMaxFloat:
		if v.Kind() != value.KindFloat && v.Kind() != value.KindInt {
			return mismatch(s, v)
		}
		foldExtreme(op, c, v)
	case FastOr:
		if v.Kind() != value.KindBool {
			return mismatch(s, v)
		}
		c.B = c.B || v.Bool()
	case FastAnd:
		if v.Kind() != value.KindBool {
			return mismatch(s, v)
		}
		c.B = c.B && v.Bool()
	}
	c.Touched = true
	return nil
}

// FoldFastInt folds an input already evaluated as a machine int — the
// typed twin of FoldFast for the compiler's unboxed evaluators, which
// only attach to ops that accept an int outright (SumInt, MinInt,
// MaxInt), so no mismatch is possible and no Value crosses the call
// for the running-sum shapes.
func FoldFastInt(op FastOp, c *FastCell, iv int64, mult uint64) {
	switch op {
	case FastSumInt:
		c.I += iv * int64(mult)
	case FastMinInt, FastMaxInt:
		foldExtreme(op, c, value.NewInt(iv))
	}
	c.Touched = true
}

// FoldFastFloat is the float counterpart of FoldFastInt, valid for
// SumFloat, Avg, MinFloat and MaxFloat. Extremes still box the winner
// so a cell shared with the general FoldFast path keeps the boxed
// accumulator's kind-preserving comparison.
func FoldFastFloat(op FastOp, c *FastCell, fv float64, mult uint64) {
	switch op {
	case FastSumFloat:
		c.F += fv * float64(mult)
	case FastAvg:
		c.F += fv * float64(mult)
		c.N += mult
	case FastMinFloat, FastMaxFloat:
		foldExtreme(op, c, value.NewFloat(fv))
	}
	c.Touched = true
}

func foldExtreme(op FastOp, c *FastCell, v value.Value) {
	if !c.Has {
		c.Has = true
		c.V = v
		return
	}
	if op == FastMaxInt || op == FastMaxFloat {
		c.V = value.MaxOf(c.V, v)
	} else {
		c.V = value.MinOf(c.V, v)
	}
}

// MergeFast folds a worker cell into the live accumulator, mirroring
// what live.Merge(delta) does for the corresponding boxed delta —
// field-wise addition for Sum/Avg, a single Input of the extreme for
// Min/Max, a single boolean Input for Or/And. Callers must only merge
// Touched cells: the interpreter creates deltas lazily, so an
// untouched accumulator sees no Merge at all.
func MergeFast(a Accumulator, op FastOp, c *FastCell) error {
	switch live := a.(type) {
	case *sumNum:
		live.i += c.I
		live.f += c.F
		return nil
	case *avg:
		live.sum += c.F
		live.count += c.N
		return nil
	case *minMax:
		if c.Has {
			return live.Input(c.V, 1)
		}
		return nil
	case *boolAcc:
		return live.Input(value.NewBool(c.B), 1)
	}
	return mergeMismatch(a.Spec(), a)
}

// FloatOf reads a scalar accumulator's value as a machine float — the
// unboxed twin of a.Value() for the compiler's typed reads. ok is true
// for a Sum<float>, and for a Min/Max<float> whose extreme (or empty
// identity) is a float; it is false for anything else, notably a
// Min/Max<float> that holds an int, whose int kind the boxed path keeps.
func FloatOf(a Accumulator) (float64, bool) {
	switch a := a.(type) {
	case *sumNum:
		return a.f, a.spec.Elem == value.KindFloat
	case *minMax:
		if a.spec.Elem != value.KindFloat {
			return 0, false
		}
		if !a.has {
			e := a.emptyExtreme()
			return e.TryFloat()
		}
		return a.val.TryFloat()
	}
	return 0, false
}

// IntOf is FloatOf for Sum<int> and Min/Max<int>.
func IntOf(a Accumulator) (int64, bool) {
	switch a := a.(type) {
	case *sumNum:
		return a.i, a.spec.Elem == value.KindInt
	case *minMax:
		if a.spec.Elem != value.KindInt {
			return 0, false
		}
		if !a.has {
			e := a.emptyExtreme()
			return e.TryInt()
		}
		return a.val.TryInt()
	}
	return 0, false
}

// PutFloat applies '=' (assign) or '+=' of a machine float to a live
// accumulator: a Sum<float> updates its running sum in place, any
// other accumulator takes the boxed float through Assign / Input, so
// the result and any error are exactly the boxed statement's.
func PutFloat(a Accumulator, f float64, assign bool) error {
	if s, ok := a.(*sumNum); ok && s.spec.Elem == value.KindFloat {
		if assign {
			s.f = f
		} else {
			s.f += f
		}
		return nil
	}
	if assign {
		return a.Assign(value.NewFloat(f))
	}
	return a.Input(value.NewFloat(f), 1)
}

// PutInt is PutFloat for a machine int; a Sum<int> updates in place.
func PutInt(a Accumulator, i int64, assign bool) error {
	if s, ok := a.(*sumNum); ok && s.spec.Elem == value.KindInt {
		if assign {
			s.i = i
		} else {
			s.i += i
		}
		return nil
	}
	if assign {
		return a.Assign(value.NewInt(i))
	}
	return a.Input(value.NewInt(i), 1)
}
