package match

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// mixedPatterns covers the D1/D2/U edge types of
// graph.BuildRandomMixedGraph: every adornment, Kleene and bounded
// repetition, alternation, concatenation and the wildcard.
var mixedPatterns = []string{
	"D1>", "D1>.D2>", "D1>*", "(D1>|D2>)*", "U*", "(D1>|U)*",
	"D1>*1..3", "<D1.D2>", "(D1>.D2>)*", "_*1..4", "D1>.(U|<D2)*",
}

// countASP is CountASPCtx under a background context; an error fails
// the test.
func countASP(t testing.TB, g *graph.Graph, d *darpe.DFA, src graph.VID) *Counts {
	t.Helper()
	c, err := CountASPCtx(context.Background(), g, d, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// countAll is the all-pairs SDMC flavor as a test-local loop: one
// SourceCounter run per source vertex, spread over workers goroutines
// (at least one) by an atomic source cursor, each worker owning one
// counter and so one scratch. Cancelling ctx stops every worker at its
// kernel's next stride poll or its next source pickup.
func countAll(ctx context.Context, g *graph.Graph, d *darpe.DFA, workers int) ([]*Counts, error) {
	out := make([]*Counts, g.NumVertices())
	counters := make([]*SourceCounter, max(1, min(workers, len(out))))
	for w := range counters {
		sc, err := NewSourceCounter(g, d)
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		counters[w] = sc
	}
	var cursor atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for _, sc := range counters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := cursor.Add(1) - 1
				if v >= int64(len(out)) || cancelled.Load() {
					return
				}
				c, ok := sc.Count(graph.VID(v), ctx.Done())
				if !ok {
					cancelled.Store(true)
					return
				}
				out[v] = c
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		return nil, ctxErr(ctx)
	}
	return out, nil
}

// assertSameCounts asserts two single-source results are bit-identical.
func assertSameCounts(t *testing.T, label string, ref, got *Counts) {
	t.Helper()
	if len(ref.Dist) != len(got.Dist) {
		t.Fatalf("%s: result size %d vs %d", label, len(got.Dist), len(ref.Dist))
	}
	for v := range ref.Dist {
		if ref.Dist[v] != got.Dist[v] || ref.Mult[v] != got.Mult[v] {
			t.Fatalf("%s: v%d: CSR (dist=%d mult=%d), reference (dist=%d mult=%d)",
				label, v, got.Dist[v], got.Mult[v], ref.Dist[v], ref.Mult[v])
		}
	}
	if ref.Saturated != got.Saturated {
		t.Fatalf("%s: Saturated CSR=%v reference=%v", label, got.Saturated, ref.Saturated)
	}
}

// diffFixture is one (graph, patterns) differential case. The fixtures
// mirror every graph/pattern combination the match tests exercise.
type diffFixture struct {
	name     string
	g        *graph.Graph
	patterns []string
}

func diffFixtures(t *testing.T) []diffFixture {
	t.Helper()
	undirected := func() *graph.Graph {
		s := graph.NewSchema()
		if _, err := s.AddVertexType("V", graph.AttrDef{Name: "name", Type: graph.AttrString}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddEdgeType("K", false); err != nil {
			t.Fatal(err)
		}
		g := graph.New(s)
		a, _ := g.AddVertex("V", "a", nil)
		b, _ := g.AddVertex("V", "b", nil)
		c, _ := g.AddVertex("V", "c", nil)
		mustEdge(t, g, "K", a, b)
		mustEdge(t, g, "K", c, b)
		return g
	}
	parallelEdges := func() *graph.Graph {
		s := graph.NewSchema()
		if _, err := s.AddVertexType("V", graph.AttrDef{Name: "name", Type: graph.AttrString}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddEdgeType("E", true); err != nil {
			t.Fatal(err)
		}
		g := graph.New(s)
		a, _ := g.AddVertex("V", "a", nil)
		b, _ := g.AddVertex("V", "b", nil)
		for i := 0; i < 3; i++ {
			mustEdge(t, g, "E", a, b)
		}
		return g
	}
	return []diffFixture{
		{"G1", graph.BuildG1(), []string{"E>*", "E>", "<E*", "_*1..4"}},
		{"G2", graph.BuildG2(), []string{"E>*.F>.E>*", "E>*", "F>"}},
		{"ABCCycle", graph.BuildABCCycle(), []string{"A>.(B>|D>)._>.A>", "_*"}},
		{"Diamond12", graph.BuildDiamondChain(12), []string{"E>*", "E>*1..3"}},
		{"Diamond70-saturating", graph.BuildDiamondChain(70), []string{"E>*"}},
		{"Undirected", undirected(), []string{"K*1..2", "K>", "K"}},
		{"ParallelEdges", parallelEdges(), []string{"E>", "E>*"}},
	}
}

func mustEdge(t *testing.T, g *graph.Graph, typ string, a, b graph.VID) {
	t.Helper()
	if _, err := g.AddEdge(typ, a, b, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCSRKernelMatchesReference runs every fixture through both the
// old slice-of-slices implementation (countASPReference) and the CSR
// kernel, from every source vertex, asserting bit-identical
// Dist/Mult/Saturated — the differential guarantee that the layout and
// scratch-reuse rework changed performance only.
func TestCSRKernelMatchesReference(t *testing.T) {
	for _, fx := range diffFixtures(t) {
		for _, pat := range fx.patterns {
			d := darpe.MustCompile(pat)
			for v := 0; v < fx.g.NumVertices(); v++ {
				src := graph.VID(v)
				ref := countASPReference(fx.g, d, src)
				got := countASP(t, fx.g, d, src)
				assertSameCounts(t, fmt.Sprintf("%s %q src=%d", fx.name, pat, v), ref, got)
			}
			// All-sources loops reuse one scratch per worker across
			// sources — the epoch logic must isolate runs just as well.
			refAll := make([]*Counts, fx.g.NumVertices())
			for v := range refAll {
				refAll[v] = countASPReference(fx.g, d, graph.VID(v))
			}
			for flavor, workers := range map[string]int{"serial": 1, "parallel": 4} {
				all, err := countAll(context.Background(), fx.g, d, workers)
				if err != nil {
					t.Fatal(err)
				}
				for v := range refAll {
					assertSameCounts(t, fmt.Sprintf("%s %s %q src=%d", fx.name, flavor, pat, v), refAll[v], all[v])
				}
			}
		}
	}
}

// TestCSRKernelMatchesReferenceRandom property-checks the differential
// on random mixed graphs (directed/undirected/parallel/self-loop
// edges) across the same pattern set the brute-force oracle test uses.
func TestCSRKernelMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(2+r.Intn(8), 1+r.Intn(16), seed)
		d := darpe.MustCompile(mixedPatterns[r.Intn(len(mixedPatterns))])
		for v := 0; v < g.NumVertices(); v++ {
			src := graph.VID(v)
			ref := countASPReference(g, d, src)
			got := countASP(t, g, d, src)
			assertSameCounts(t, fmt.Sprintf("seed=%d src=%d", seed, v), ref, got)
		}
	}
}

// TestCountASPAfterMutationRefreezes asserts the query path sees a
// mutation made after a frozen query: the graph re-freezes lazily and
// the counts change accordingly.
func TestCountASPAfterMutationRefreezes(t *testing.T) {
	g := graph.BuildDiamondChain(4)
	d := darpe.MustCompile("E>*")
	v0, _ := g.VertexByKey("V", "v0")
	v4, _ := g.VertexByKey("V", "v4")

	if _, mult, ok, err := CountASPPair(g, d, v0, v4); err != nil || !ok || mult != 16 {
		t.Fatalf("before mutation: mult=%d ok=%v err=%v, want 16", mult, ok, err)
	}
	// A direct v0→v4 edge makes the shortest path length 1, unique.
	mustEdge(t, g, "E", v0, v4)
	dist, mult, ok, err := CountASPPair(g, d, v0, v4)
	if err != nil || !ok || dist != 1 || mult != 1 {
		t.Fatalf("after mutation: dist=%d mult=%d ok=%v err=%v, want 1/1/true", dist, mult, ok, err)
	}
	// And the differential still holds on the mutated, re-frozen graph.
	ref := countASPReference(g, d, v0)
	got := countASP(t, g, d, v0)
	assertSameCounts(t, "mutated diamond", ref, got)
}
