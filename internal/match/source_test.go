package match

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// TestReachedMatchesDenseScan checks the sparse Reached list against
// the dense definition — exactly the vertices with Dist >= 0, in
// ascending VID order — across kernel, reference and enumeration
// producers on random graphs.
func TestReachedMatchesDenseScan(t *testing.T) {
	patterns := []string{"D1>*", "(D1>|U)*", "D2>*1..3", "_*1..2"}
	check := func(c *Counts, what string, seed int64) {
		t.Helper()
		var want []graph.VID
		for v := range c.Dist {
			if c.Dist[v] >= 0 {
				want = append(want, graph.VID(v))
			}
		}
		if len(want) != len(c.Reached) {
			t.Fatalf("seed %d %s: Reached has %d entries, dense scan %d", seed, what, len(c.Reached), len(want))
		}
		for i := range want {
			if c.Reached[i] != want[i] {
				t.Fatalf("seed %d %s: Reached[%d]=%d, want %d (ascending)", seed, what, i, c.Reached[i], want[i])
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(2+r.Intn(8), 1+r.Intn(16), seed)
		d := darpe.MustCompile(patterns[int(seed)%len(patterns)])
		src := graph.VID(r.Intn(g.NumVertices()))
		check(countASP(t, g, d, src), "kernel", seed)
		ref, ok := countASPReferenceDone(g, d, src, nil)
		if !ok {
			t.Fatal("reference aborted without done channel")
		}
		check(ref, "reference", seed)
		en, err := CountEnumCtx(context.Background(), g, d, src, NonRepeatedEdge, EnumLimits{})
		if err != nil {
			t.Fatal(err)
		}
		check(en, "enum", seed)
	}
}

// TestSourceCounterMatchesCountASP checks that one SourceCounter
// reused across every source returns results bit-identical to the
// reference kernel (and so to CountASPCtx's one-shot runs), and that
// Existsify collapses multiplicities.
func TestSourceCounterMatchesCountASP(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(3+r.Intn(6), 2+r.Intn(12), seed)
		d := darpe.MustCompile("(D1>|D2>)*")
		sc, err := NewSourceCounter(g, d)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			want := countASPReference(g, d, graph.VID(v))
			got, ok := sc.Count(graph.VID(v), nil)
			if !ok {
				t.Fatal("SourceCounter aborted without done channel")
			}
			assertSameCounts(t, "SourceCounter", want, got)
		}
		sc.Close()
	}
	// Existsify: every reached target drops to multiplicity 1.
	g := graph.BuildDiamondChain(4)
	d := darpe.MustCompile("E>*")
	sc, err := NewSourceCounter(g, d)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	c, _ := sc.Count(0, nil)
	Existsify(c)
	for _, tgt := range c.Reached {
		if c.Mult[tgt] != 1 {
			t.Fatalf("Existsify left Mult[%d]=%d", tgt, c.Mult[tgt])
		}
	}
	if len(c.Reached) == 0 {
		t.Fatal("diamond chain source reaches nothing?")
	}
}

// TestSourceCounterCancellation: a closed done channel aborts the run
// at the kernel's stride poll.
func TestSourceCounterCancellation(t *testing.T) {
	g := graph.BuildRandomMixedGraph(10, 30, 2)
	sc, err := NewSourceCounter(g, darpe.MustCompile("_*"))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	done := make(chan struct{})
	close(done)
	if _, ok := sc.Count(0, done); ok {
		t.Error("closed done channel must abort the count")
	}
}

func TestProductFits(t *testing.T) {
	for _, tc := range []struct {
		nV, nQ int
		want   bool
	}{
		{0, 0, true},
		{0, math.MaxInt32 + 1, true},
		{1, 1, true},
		{math.MaxInt32, 1, true},
		{1, math.MaxInt32, true},
		{math.MaxInt32 + 1, 1, false},
		{1, math.MaxInt32 + 1, false},
		{1 << 16, 1 << 15, false}, // exactly MaxInt32+1
		{(1 << 16) - 1, 1 << 15, true},
		{math.MaxInt32, 2, false},
	} {
		if got := productFits(tc.nV, tc.nQ); got != tc.want {
			t.Errorf("productFits(%d, %d) = %v, want %v", tc.nV, tc.nQ, got, tc.want)
		}
	}
}

// TestProductTooLarge lowers the kernel's product limit so a small
// graph trips it, and checks every counting entry point reports the
// typed error instead of running.
func TestProductTooLarge(t *testing.T) {
	g := graph.BuildDiamondChain(3) // 10 vertices
	d := darpe.MustCompile("E>*")
	nQ := int64(d.NumStates())
	defer func(old int64) { maxProduct = old }(maxProduct)

	maxProduct = int64(g.NumVertices()) * nQ
	sc, err := NewSourceCounter(g, d)
	if err != nil {
		t.Fatalf("product at the limit: %v", err)
	}
	sc.Close()

	maxProduct--
	if _, err := NewSourceCounter(g, d); !errors.Is(err, ErrProductTooLarge) {
		t.Errorf("NewSourceCounter err = %v, want ErrProductTooLarge", err)
	}
	if _, err := CountASPCtx(context.Background(), g, d, 0); !errors.Is(err, ErrProductTooLarge) {
		t.Errorf("CountASPCtx err = %v, want ErrProductTooLarge", err)
	}
	if _, _, _, err := CountASPPair(g, d, 0, 1); !errors.Is(err, ErrProductTooLarge) {
		t.Errorf("CountASPPair err = %v, want ErrProductTooLarge", err)
	}
	if _, err := CountExists(g, d, 0); !errors.Is(err, ErrProductTooLarge) {
		t.Errorf("CountExists err = %v, want ErrProductTooLarge", err)
	}
}

// FuzzSDMCKernel holds SourceCounter.Count to the reference kernel on
// a seed-derived random mixed graph, one of mixedPatterns, and one
// source: Dist, Mult, Reached and Saturated must agree bit for bit.
func FuzzSDMCKernel(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(3*seed), uint8(seed), uint16(seed))
	}
	f.Add(int64(-7), uint8(7), uint8(15), uint8(10), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, nv, ne, pat uint8, src uint16) {
		g := graph.BuildRandomMixedGraph(1+int(nv)%10, int(ne)%24, seed)
		d := darpe.MustCompile(mixedPatterns[int(pat)%len(mixedPatterns)])
		s := graph.VID(int(src) % g.NumVertices())
		sc, err := NewSourceCounter(g, d)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		got, ok := sc.Count(s, nil)
		if !ok {
			t.Fatal("SourceCounter aborted without done channel")
		}
		ref := countASPReference(g, d, s)
		assertSameCounts(t, "fuzz", ref, got)
		if !slices.Equal(ref.Reached, got.Reached) {
			t.Fatalf("Reached: CSR %v, reference %v", got.Reached, ref.Reached)
		}
	})
}
