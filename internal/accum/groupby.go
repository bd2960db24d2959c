package accum

import (
	"fmt"

	"gsqlgo/internal/value"
)

// group is one grouping-key entry of a GroupByAccum.
type group struct {
	keys []value.Value
	accs []Accumulator
}

// groupBy implements GroupByAccum<k1, ..., km, A1, ..., An>: a map
// from composite keys to a row of nested accumulators. Inputs are the
// paper's arrow tuples "(k1, ..., km -> a1, ..., an)", represented as
// a flat tuple of m keys followed by n aggregate inputs; a Null
// aggregate input skips that nested accumulator (used to express
// per-grouping-set aggregate selection as in Example 13).
type groupBy struct {
	spec   *Spec
	groups map[string]*group
	// key is Input's scratch buffer for the composite group key, so
	// an input to an existing group allocates nothing. Each instance is
	// fed by one goroutine (parallel ACCUM workers fold into deltas of
	// their own), so the buffer needs no lock.
	key []byte
}

func (a *groupBy) Spec() *Spec { return a.spec }

func (a *groupBy) arity() (int, int) { return len(a.spec.Keys), len(a.spec.Nested) }

func (a *groupBy) Input(v value.Value, mult uint64) error {
	nk, na := a.arity()
	if v.Kind() != value.KindTuple || len(v.Elems()) != nk+na {
		return fmt.Errorf("accum: %s expects a (%d keys -> %d inputs) tuple, got %s",
			a.spec, nk, na, v)
	}
	elems := v.Elems()
	keys := elems[:nk]
	a.key = a.key[:0]
	for _, k := range keys {
		a.key = k.AppendKey(a.key)
		a.key = append(a.key, '|')
	}
	g := a.groups[string(a.key)]
	if g == nil {
		g = &group{keys: append([]value.Value(nil), keys...), accs: make([]Accumulator, na)}
		for i, ns := range a.spec.Nested {
			nested, err := New(ns)
			if err != nil {
				return err
			}
			g.accs[i] = nested
		}
		a.groups[string(a.key)] = g
	}
	for i := 0; i < na; i++ {
		in := elems[nk+i]
		if in.IsNull() {
			continue // aggregate not requested for this grouping set
		}
		if err := g.accs[i].Input(in, mult); err != nil {
			return err
		}
	}
	return nil
}

func (a *groupBy) Assign(v value.Value) error { return mismatch(a.spec, v) }

func (a *groupBy) Merge(other Accumulator) error {
	o, ok := other.(*groupBy)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	for gk, og := range o.groups {
		g := a.groups[gk]
		if g == nil {
			cl := &group{keys: og.keys, accs: make([]Accumulator, len(og.accs))}
			for i, acc := range og.accs {
				cl.accs[i] = acc.Clone()
			}
			a.groups[gk] = cl
			continue
		}
		for i, acc := range og.accs {
			if err := g.accs[i].Merge(acc); err != nil {
				return err
			}
		}
	}
	return nil
}

// Value renders the grouped state as a map from the key tuple to the
// tuple of nested accumulator values.
func (a *groupBy) Value() value.Value {
	pairs := make([]value.Pair, 0, len(a.groups))
	for _, g := range a.groups {
		vals := make([]value.Value, len(g.accs))
		for i, acc := range g.accs {
			vals[i] = acc.Value()
		}
		pairs = append(pairs, value.Pair{
			Key: value.NewTuple(append([]value.Value(nil), g.keys...)),
			Val: value.NewTuple(vals),
		})
	}
	return value.NewMap(pairs)
}

// NumGroups reports the number of grouping keys seen so far.
func (a *groupBy) NumGroups() int { return len(a.groups) }

func (a *groupBy) Clone() Accumulator {
	c := &groupBy{spec: a.spec, groups: make(map[string]*group, len(a.groups))}
	for gk, g := range a.groups {
		cl := &group{keys: g.keys, accs: make([]Accumulator, len(g.accs))}
		for i, acc := range g.accs {
			cl.accs[i] = acc.Clone()
		}
		c.groups[gk] = cl
	}
	return c
}
