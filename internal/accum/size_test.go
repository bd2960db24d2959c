package accum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsqlgo/internal/value"
)

// valueSize is the builtin size() of a container's materialised value:
// the count Size must reproduce without building it.
func valueSize(v value.Value) int {
	if v.Kind() == value.KindMap {
		return len(v.Pairs())
	}
	return len(v.Elems())
}

// collidingNum draws from a small pool so inputs collide, mixing ints
// with the int-valued floats that must share their entry (1 vs 1.0)
// and with fractional floats that must not.
func collidingNum(r *rand.Rand) value.Value {
	n := r.Intn(6)
	switch r.Intn(3) {
	case 0:
		return value.NewInt(int64(n))
	case 1:
		return value.NewFloat(float64(n))
	}
	return value.NewFloat(float64(n) + 0.5)
}

var sizeTuple = &TupleType{Name: "T", Fields: []TupleField{{"x", value.KindFloat}, {"s", value.KindString}}}

// sizeCase is one container kind with a generator of its inputs; key
// is the input's dedup key, which the NaN probe replaces.
type sizeCase struct {
	name  string
	spec  *Spec
	input func(r *rand.Rand, key value.Value) value.Value
	// keyed containers dedup entries by key, so a key that is not
	// value.KeyExact makes Size decline; lists and heaps keep every
	// element and always count.
	keyed bool
}

func sizeCases() []sizeCase {
	str := func(r *rand.Rand) value.Value { return value.NewString(string(rune('a' + r.Intn(3)))) }
	return []sizeCase{
		{"set", SetSpec(value.KindFloat), func(r *rand.Rand, k value.Value) value.Value { return k }, true},
		{"bag", BagSpec(value.KindFloat), func(r *rand.Rand, k value.Value) value.Value { return k }, true},
		{"list", ListSpec(value.KindFloat), func(r *rand.Rand, k value.Value) value.Value { return k }, false},
		{"map", MapSpec(value.KindFloat, SumSpec(value.KindInt)), func(r *rand.Rand, k value.Value) value.Value {
			return value.NewTuple([]value.Value{k, value.NewInt(int64(r.Intn(5)))})
		}, true},
		{"heap", HeapSpec(sizeTuple, 4, SortField{Field: "x", Desc: true}), func(r *rand.Rand, k value.Value) value.Value {
			return value.NewTuple([]value.Value{k, str(r)})
		}, false},
		{"groupby", GroupBySpec([]value.Kind{value.KindFloat, value.KindString}, []*Spec{SumSpec(value.KindInt), AvgSpec(value.KindFloat)}),
			func(r *rand.Rand, k value.Value) value.Value {
				return value.NewTuple([]value.Value{k, str(r), value.NewInt(1), collidingNum(r)})
			}, true},
	}
}

func checkSize(t *testing.T, what string, a Accumulator) {
	t.Helper()
	n, ok := Size(a)
	if want := valueSize(a.Value()); !ok || n != want {
		t.Fatalf("%s: Size = (%d, %v), size(Value()) = %d", what, n, ok, want)
	}
}

// TestSizeMatchesValue is the equivalence property behind answering
// size(@@acc) from the container: for every container kind, over random
// colliding inputs and the states Merge and Clone produce, Size equals
// the size of the materialised value.
func TestSizeMatchesValue(t *testing.T) {
	for _, c := range sizeCases() {
		for seed := int64(0); seed < 50; seed++ {
			r := rand.New(rand.NewSource(seed))
			feed := func(a Accumulator) {
				for i, n := 0, r.Intn(30); i < n; i++ {
					if err := a.Input(c.input(r, collidingNum(r)), uint64(1+r.Intn(3))); err != nil {
						t.Fatal(err)
					}
				}
			}
			a, b := MustNew(c.spec), MustNew(c.spec)
			feed(a)
			feed(b)
			what := fmt.Sprintf("%s seed %d", c.name, seed)
			checkSize(t, what, a)
			clone := a.Clone()
			checkSize(t, what+" clone", clone)
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			checkSize(t, what+" merged", a)
			feed(clone)
			checkSize(t, what+" clone fed after merge", clone)
		}
	}
}

// TestSizeDeclines checks the cases Size leaves to size(a.Value()):
// non-containers, and keyed containers holding a key Compare and Key
// disagree on (a NaN, or an int beyond ±2^53).
func TestSizeDeclines(t *testing.T) {
	for _, spec := range []*Spec{SumSpec(value.KindInt), MaxSpec(value.KindFloat), AvgSpec(value.KindFloat), OrSpec()} {
		if _, ok := Size(MustNew(spec)); ok {
			t.Errorf("Size(%s) must decline", spec)
		}
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range sizeCases() {
		for _, odd := range []value.Value{value.NewFloat(math.NaN()), value.NewInt(1<<53 + 1)} {
			a := MustNew(c.spec)
			for _, k := range []value.Value{value.NewInt(1), odd, value.NewFloat(2.5)} {
				if err := a.Input(c.input(r, k), 1); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			n, ok := Size(a)
			if c.keyed {
				if ok {
					t.Errorf("%s holding key %v: Size = %d, must decline", c.name, odd, n)
				}
				continue
			}
			if want := valueSize(a.Value()); !ok || n != want {
				t.Errorf("%s holding %v: Size = (%d, %v), want (%d, true)", c.name, odd, n, ok, want)
			}
		}
	}
}

// TestGroupByInputExistingGroupAllocs pins the allocation-free group
// key: an input to an existing group allocates nothing beyond what its
// nested accumulators allocate to keep that input. Scalar aggregates
// and a full heap keep nothing new; a set keeps each new element, and
// a group-by of one set allocates exactly what that set alone does.
func TestGroupByInputExistingGroupAllocs(t *testing.T) {
	heap := HeapSpec(sizeTuple, 2, SortField{Field: "x", Desc: true})
	gb := MustNew(GroupBySpec(
		[]value.Kind{value.KindString, value.KindInt, value.KindFloat},
		[]*Spec{SumSpec(value.KindInt), AvgSpec(value.KindFloat), MaxSpec(value.KindFloat), heap},
	))
	tuple := value.NewTuple([]value.Value{value.NewFloat(1), value.NewString("a")})
	in := value.NewTuple([]value.Value{
		value.NewString("City-1"), value.NewInt(2011), value.NewFloat(2.5),
		value.NewInt(1), value.NewFloat(3), value.NewFloat(4), tuple,
	})
	for i := 0; i < 3; i++ { // create the group and fill its heap
		mustInput(t, gb, in, 1)
	}
	if got := testing.AllocsPerRun(100, func() { mustInput(t, gb, in, 1) }); got != 0 {
		t.Errorf("input to an existing group of scalars and a full heap: %v allocs, want 0", got)
	}

	const runs = 100
	inputs := make([]value.Value, runs+1) // AllocsPerRun calls once more to warm up
	for i := range inputs {
		inputs[i] = value.NewInt(int64(i))
	}
	set := MustNew(SetSpec(value.KindInt))
	mustInput(t, set, value.NewInt(-1), 1) // mirror the group's first input below
	i := 0
	setAllocs := testing.AllocsPerRun(runs, func() { mustInput(t, set, inputs[i], 1); i++ })
	gbSet := MustNew(GroupBySpec([]value.Kind{value.KindString}, []*Spec{SetSpec(value.KindInt)}))
	key := value.NewString("k")
	rows := make([]value.Value, len(inputs))
	for j, v := range inputs {
		rows[j] = value.NewTuple([]value.Value{key, v})
	}
	mustInput(t, gbSet, value.NewTuple([]value.Value{key, value.NewInt(-1)}), 1) // create the group
	i = 0
	gbAllocs := testing.AllocsPerRun(runs, func() { mustInput(t, gbSet, rows[i], 1); i++ })
	if setAllocs == 0 || gbAllocs != setAllocs {
		t.Errorf("group-by of a set: %v allocs per input, the set alone: %v (want equal and non-zero)", gbAllocs, setAllocs)
	}
}
