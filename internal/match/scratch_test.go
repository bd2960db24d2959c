package match

import (
	"fmt"
	"testing"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// checkScratchRun runs the kernel from every source of g in scratch s
// and compares each result with the reference counter.
func checkScratchRun(t *testing.T, label string, g *graph.Graph, d *darpe.DFA, s *scratch) {
	t.Helper()
	c, types := g.Freeze(), typeResolver(g, d)
	for v := 0; v < g.NumVertices(); v++ {
		src := graph.VID(v)
		got := newCounts(g.NumVertices())
		if !countASPInto(c, d, types, src, s, got, nil) {
			t.Fatalf("%s src=%d: kernel aborted without a done channel", label, v)
		}
		assertSameCounts(t, fmt.Sprintf("%s src=%d", label, v), countASPReference(g, d, src), got)
	}
}

// TestScratchServesGrowingGraph follows one scratch through a stream
// of vertex inserts. A scratch serves any product no larger than its
// arrays, so while the graph grows within the headroom fit keeps the
// same arrays, and past it fit grows them in place of a new size class;
// a large scratch also serves a smaller graph. Counts match the
// reference kernel at every step.
func TestScratchServesGrowingGraph(t *testing.T) {
	d := darpe.MustCompile("(D1>|U)*")
	nQ := d.NumStates()
	g := graph.BuildRandomMixedGraph(64, 200, 3)
	s := (*scratch)(nil).fit(g.NumVertices() * nQ)
	checkScratchRun(t, "large scratch, small graph", graph.BuildRandomMixedGraph(8, 20, 4), d, s)
	checkScratchRun(t, "initial", g, d, s)
	stamp := &s.stamp[0]
	const inserts = 40
	grew := 0
	for i := 0; i < inserts; i++ {
		v, err := g.AddVertex("V", fmt.Sprintf("new%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge("U", v, graph.VID(i), nil); err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices() * nQ
		fits := len(s.stamp) >= n
		if s.fit(n) != s {
			t.Fatalf("insert %d: fit replaced a non-nil scratch", i)
		}
		if len(s.stamp) < n || len(s.dist) < n || len(s.cnt) < n {
			t.Fatalf("insert %d: scratch arrays %d/%d/%d for a %d-node product", i, len(s.stamp), len(s.dist), len(s.cnt), n)
		}
		switch {
		case fits && &s.stamp[0] != stamp:
			t.Fatalf("insert %d: arrays reallocated although %d entries cover %d nodes", i, len(s.stamp), n)
		case !fits:
			grew++
			stamp = &s.stamp[0]
		}
		checkScratchRun(t, fmt.Sprintf("insert %d", i), g, d, s)
	}
	// 64 → 104 vertices with an eighth of headroom grows at 73, 83
	// and 94 vertices.
	if grew != 3 {
		t.Fatalf("scratch grew %d times over %d inserts, want 3", grew, inserts)
	}
}

// TestSourceCounterAcrossInserts drives the pooled path the engine
// uses: one SourceCounter per run while the graph grows and shrinks
// between two graphs of different sizes, so pooled scratches of one
// size serve products of the other. Every count matches the reference.
func TestSourceCounterAcrossInserts(t *testing.T) {
	d := darpe.MustCompile("D1>.(U|<D2)*")
	big := graph.BuildRandomMixedGraph(40, 120, 5)
	small := graph.BuildRandomMixedGraph(6, 14, 6)
	for i := 0; i < 10; i++ {
		for _, g := range []*graph.Graph{big, small} {
			if _, err := g.AddVertex("V", fmt.Sprintf("new%d", i), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := g.AddEdge("D1", graph.VID(i), graph.VID(g.NumVertices()-1), nil); err != nil {
				t.Fatal(err)
			}
			sc, err := NewSourceCounter(g, d)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.NumVertices(); v++ {
				got, _ := sc.Count(graph.VID(v), nil)
				assertSameCounts(t, fmt.Sprintf("insert %d, %d vertices, src=%d", i, g.NumVertices(), v),
					countASPReference(g, d, graph.VID(v)), got)
			}
			sc.Close()
		}
	}
}
