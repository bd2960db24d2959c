package accum

import (
	"sort"

	"gsqlgo/internal/value"
)

// ---- SetAccum ---------------------------------------------------------------

// set deduplicates inputs; multiplicity is irrelevant by definition.
type set struct {
	spec  *Spec
	elems map[string]setEntry
	key   []byte // Input's scratch key buffer (see groupBy.key)
}

// setEntry is one set element with its own key string, so an input
// equal to a present element overwrites it in place (the last input
// wins, as with a keyed assignment) without allocating a new key.
type setEntry struct {
	key string
	v   value.Value
}

func (a *set) Spec() *Spec { return a.spec }

func (a *set) Input(v value.Value, mult uint64) error {
	if v.Kind() != a.spec.Elem && !(a.spec.Elem == value.KindFloat && v.Kind() == value.KindInt) {
		return mismatch(a.spec, v)
	}
	a.key = v.AppendKey(a.key[:0])
	if e, ok := a.elems[string(a.key)]; ok {
		e.v = v
		a.elems[e.key] = e
		return nil
	}
	k := string(a.key)
	a.elems[k] = setEntry{key: k, v: v}
	return nil
}

func (a *set) Assign(v value.Value) error {
	switch v.Kind() {
	case value.KindSet, value.KindList:
		fresh := make(map[string]setEntry, len(v.Elems()))
		for _, e := range v.Elems() {
			k := e.Key()
			fresh[k] = setEntry{key: k, v: e}
		}
		a.elems = fresh
		return nil
	}
	return mismatch(a.spec, v)
}

func (a *set) Merge(other Accumulator) error {
	o, ok := other.(*set)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	for k, e := range o.elems {
		a.elems[k] = e
	}
	return nil
}

func (a *set) Value() value.Value {
	out := make([]value.Value, 0, len(a.elems))
	for _, e := range a.elems {
		out = append(out, e.v)
	}
	return value.NewSet(out)
}

func (a *set) Clone() Accumulator {
	c := &set{spec: a.spec, elems: make(map[string]setEntry, len(a.elems))}
	for k, v := range a.elems {
		c.elems[k] = v
	}
	return c
}

// ---- BagAccum ---------------------------------------------------------------

type bagEntry struct {
	key   string // the entry's map key, reused to update it in place
	v     value.Value
	count uint64
}

// bag keeps element counts, so a multiplicity-μ input is a single
// count update (the Appendix A shortcut for bags).
type bag struct {
	spec  *Spec
	elems map[string]bagEntry
	key   []byte // Input's scratch key buffer (see groupBy.key)
}

func (a *bag) Spec() *Spec { return a.spec }

func (a *bag) Input(v value.Value, mult uint64) error {
	if v.Kind() != a.spec.Elem && !(a.spec.Elem == value.KindFloat && v.Kind() == value.KindInt) {
		return mismatch(a.spec, v)
	}
	a.key = v.AppendKey(a.key[:0])
	e, ok := a.elems[string(a.key)]
	if !ok {
		e.key = string(a.key)
	}
	e.v = v
	e.count += mult
	a.elems[e.key] = e
	return nil
}

func (a *bag) Assign(v value.Value) error {
	switch v.Kind() {
	case value.KindSet, value.KindList:
		fresh := make(map[string]bagEntry)
		for _, e := range v.Elems() {
			k := e.Key()
			en := fresh[k]
			en.key = k
			en.v = e
			en.count++
			fresh[k] = en
		}
		a.elems = fresh
		return nil
	}
	return mismatch(a.spec, v)
}

func (a *bag) Merge(other Accumulator) error {
	o, ok := other.(*bag)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	for k, oe := range o.elems {
		e := a.elems[k]
		e.key = k
		e.v = oe.v
		e.count += oe.count
		a.elems[k] = e
	}
	return nil
}

// Value renders the bag as a map from element to count; materializing
// duplicate elements would be exponential under large multiplicities.
func (a *bag) Value() value.Value {
	pairs := make([]value.Pair, 0, len(a.elems))
	for _, e := range a.elems {
		pairs = append(pairs, value.Pair{Key: e.v, Val: value.NewInt(int64(e.count))})
	}
	return value.NewMap(pairs)
}

func (a *bag) Clone() Accumulator {
	c := &bag{spec: a.spec, elems: make(map[string]bagEntry, len(a.elems))}
	for k, v := range a.elems {
		c.elems[k] = v
	}
	return c
}

// ---- List/ArrayAccum (order-sensitive) --------------------------------------

type list struct {
	spec  *Spec
	elems []value.Value
}

func (a *list) Spec() *Spec { return a.spec }

func (a *list) Input(v value.Value, mult uint64) error {
	if v.Kind() != a.spec.Elem && !(a.spec.Elem == value.KindFloat && v.Kind() == value.KindInt) {
		return mismatch(a.spec, v)
	}
	if mult > maxReplication || uint64(len(a.elems))+mult > maxReplication {
		return ErrReplication
	}
	for i := uint64(0); i < mult; i++ {
		a.elems = append(a.elems, v)
	}
	return nil
}

func (a *list) Assign(v value.Value) error {
	switch v.Kind() {
	case value.KindList, value.KindSet:
		a.elems = append([]value.Value(nil), v.Elems()...)
		return nil
	}
	return mismatch(a.spec, v)
}

func (a *list) Merge(other Accumulator) error {
	o, ok := other.(*list)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	a.elems = append(a.elems, o.elems...)
	return nil
}

func (a *list) Value() value.Value {
	return value.NewList(append([]value.Value(nil), a.elems...))
}

func (a *list) Clone() Accumulator {
	return &list{spec: a.spec, elems: append([]value.Value(nil), a.elems...)}
}

// ---- MapAccum ---------------------------------------------------------------

type mapEntry struct {
	key value.Value
	acc Accumulator
}

// mapAcc maps keys to nested accumulators; inputs are (key -> input)
// tuples and route the input into the key's nested accumulator,
// exactly the paper's "V can itself be an accumulator type".
type mapAcc struct {
	spec    *Spec
	entries map[string]*mapEntry
	key     []byte // Input's scratch key buffer (see groupBy.key)
}

func (a *mapAcc) Spec() *Spec { return a.spec }

func (a *mapAcc) Input(v value.Value, mult uint64) error {
	if v.Kind() != value.KindTuple || len(v.Elems()) != 2 {
		return mismatch(a.spec, v)
	}
	key, in := v.Elems()[0], v.Elems()[1]
	a.key = key.AppendKey(a.key[:0])
	e := a.entries[string(a.key)]
	if e == nil {
		nested, err := New(a.spec.Nested[0])
		if err != nil {
			return err
		}
		e = &mapEntry{key: key, acc: nested}
		a.entries[string(a.key)] = e
	}
	return e.acc.Input(in, mult)
}

func (a *mapAcc) Assign(v value.Value) error {
	if v.Kind() != value.KindMap {
		return mismatch(a.spec, v)
	}
	fresh := make(map[string]*mapEntry, len(v.Pairs()))
	for _, p := range v.Pairs() {
		nested, err := New(a.spec.Nested[0])
		if err != nil {
			return err
		}
		if err := nested.Assign(p.Val); err != nil {
			// Scalars assign; collections assign; if the nested type
			// rejects, fall back to a single input.
			if err2 := nested.Input(p.Val, 1); err2 != nil {
				return err
			}
		}
		fresh[p.Key.Key()] = &mapEntry{key: p.Key, acc: nested}
	}
	a.entries = fresh
	return nil
}

func (a *mapAcc) Merge(other Accumulator) error {
	o, ok := other.(*mapAcc)
	if !ok {
		return mergeMismatch(a.spec, other)
	}
	for k, oe := range o.entries {
		e := a.entries[k]
		if e == nil {
			a.entries[k] = &mapEntry{key: oe.key, acc: oe.acc.Clone()}
			continue
		}
		if err := e.acc.Merge(oe.acc); err != nil {
			return err
		}
	}
	return nil
}

func (a *mapAcc) Value() value.Value {
	pairs := make([]value.Pair, 0, len(a.entries))
	for _, e := range a.entries {
		pairs = append(pairs, value.Pair{Key: e.key, Val: e.acc.Value()})
	}
	return value.NewMap(pairs)
}

func (a *mapAcc) Clone() Accumulator {
	c := &mapAcc{spec: a.spec, entries: make(map[string]*mapEntry, len(a.entries))}
	for k, e := range a.entries {
		c.entries[k] = &mapEntry{key: e.key, acc: e.acc.Clone()}
	}
	return c
}

// sortedKeys is a test/debug helper listing map keys in canonical
// order.
func (a *mapAcc) sortedKeys() []value.Value {
	out := make([]value.Value, 0, len(a.entries))
	for _, e := range a.entries {
		out = append(out, e.key)
	}
	sort.Slice(out, func(i, j int) bool { return value.Less(out[i], out[j]) })
	return out
}
