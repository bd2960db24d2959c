package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gsqlgo/internal/value"
)

// csrInvariants checks the structural invariants of a CSR against the
// adjacency it was frozen from: same half-edge multiset per vertex,
// (Type, Dir)-sorted layout within the base and ext spans, and
// segments that tile each span exactly. It accepts both canonical and
// patched (base + ext) CSRs.
func csrInvariants(t *testing.T, g *Graph, c *CSR) {
	t.Helper()
	if c.NumVertices() != g.NumVertices() {
		t.Fatalf("CSR has %d vertices, graph has %d", c.NumVertices(), g.NumVertices())
	}
	totalHalves := 0
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(VID(v))
		var flat []HalfEdge
		for _, s := range c.Segments(VID(v)) {
			flat = append(flat, c.HalfEdges(s)...)
		}
		for _, s := range c.ExtSegments(VID(v)) {
			flat = append(flat, c.ExtHalfEdges(s)...)
		}
		totalHalves += len(flat)
		if len(flat) != len(adj) {
			t.Fatalf("v%d: CSR degree %d, adj degree %d", v, len(flat), len(adj))
		}
		// Multiset equality: every (To, Edge, Type, Dir) of adj appears
		// exactly once in the CSR slice.
		seen := make(map[HalfEdge]int, len(adj))
		for _, h := range adj {
			seen[h]++
		}
		for _, h := range flat {
			seen[h]--
			if seen[h] < 0 {
				t.Fatalf("v%d: CSR half-edge %+v not in adjacency", v, h)
			}
		}
		// Per-span checks: base, then the patched-CSR ext span if any.
		type span struct {
			name       string
			halves     []HalfEdge
			segs       []Seg
			start, end int32
			resolve    func(Seg) []HalfEdge
		}
		spans := []span{}
		if int(v) < len(c.offsets)-1 {
			spans = append(spans, span{"base", c.halves[c.offsets[v]:c.offsets[v+1]], c.Segments(VID(v)), c.offsets[v], c.offsets[v+1], c.HalfEdges})
		} else if len(c.Segments(VID(v))) != 0 {
			t.Fatalf("v%d: beyond base horizon but has base segments", v)
		}
		if c.HasExt() {
			spans = append(spans, span{"ext", c.extHalves[c.extOff[v]:c.extOff[v+1]], c.ExtSegments(VID(v)), c.extOff[v], c.extOff[v+1], c.ExtHalfEdges})
		}
		for _, sp := range spans {
			// Sortedness by (Type, Dir) within the span.
			for i := 1; i < len(sp.halves); i++ {
				a, b := sp.halves[i-1], sp.halves[i]
				if a.Type > b.Type || (a.Type == b.Type && a.Dir > b.Dir) {
					t.Fatalf("v%d: %s span not (Type, Dir)-sorted at %d: %+v then %+v", v, sp.name, i, a, b)
				}
			}
			// Segments tile the span and are homogeneous.
			want := sp.start
			for _, s := range sp.segs {
				if s.Start != want {
					t.Fatalf("v%d: %s segment starts at %d, want %d", v, sp.name, s.Start, want)
				}
				if s.End <= s.Start {
					t.Fatalf("v%d: empty %s segment %+v", v, sp.name, s)
				}
				for _, h := range sp.resolve(s) {
					if h.Type != s.Type || h.Dir != s.Dir {
						t.Fatalf("v%d: half-edge %+v in %s segment %+v", v, h, sp.name, s)
					}
				}
				want = s.End
			}
			if want != sp.end {
				t.Fatalf("v%d: %s segments end at %d, span ends at %d", v, sp.name, want, sp.end)
			}
			// Adjacent segments differ (maximality).
			for i := 1; i < len(sp.segs); i++ {
				if sp.segs[i-1].Type == sp.segs[i].Type && sp.segs[i-1].Dir == sp.segs[i].Dir {
					t.Fatalf("v%d: %s segments %d and %d not maximal", v, sp.name, i-1, i)
				}
			}
		}
	}
	if c.NumHalfEdges() != totalHalves {
		t.Fatalf("NumHalfEdges %d, summed %d", c.NumHalfEdges(), totalHalves)
	}
}

func TestFreezeInvariants(t *testing.T) {
	for name, g := range map[string]*Graph{
		"G1":      BuildG1(),
		"G2":      BuildG2(),
		"cycle":   BuildABCCycle(),
		"diamond": BuildDiamondChain(8),
		"sales": BuildSalesGraph(SalesGraphConfig{
			Customers: 30, Products: 10, Sales: 200, Likes: 50, Seed: 3,
		}),
	} {
		csrInvariants(t, g, g.Freeze())
		_ = name
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := BuildRandomMixedGraph(2+r.Intn(8), 1+r.Intn(20), seed)
		csrInvariants(t, g, g.Freeze())
	}
}

func TestFreezeCachesAndInvalidates(t *testing.T) {
	g := BuildDiamondChain(3)
	c1 := g.Freeze()
	if g.Freeze() != c1 {
		t.Fatal("Freeze must cache between mutations")
	}
	// Topology mutation invalidates; the old snapshot stays intact.
	a, _ := g.VertexByKey("V", "v0")
	b, _ := g.VertexByKey("V", "v3")
	oldDeg := c1.Degree(a)
	if _, err := g.AddEdge("E", a, b, nil); err != nil {
		t.Fatal(err)
	}
	c2 := g.Freeze()
	if c2 == c1 {
		t.Fatal("AddEdge must invalidate the frozen CSR")
	}
	if c1.Degree(a) != oldDeg {
		t.Fatal("old snapshot mutated")
	}
	if c2.Degree(a) != oldDeg+1 {
		t.Fatalf("new snapshot degree %d, want %d", c2.Degree(a), oldDeg+1)
	}
	csrInvariants(t, g, c2)
	// AddVertex also invalidates (offsets must grow).
	if _, err := g.AddVertex("V", "extra", nil); err != nil {
		t.Fatal(err)
	}
	c3 := g.Freeze()
	if c3 == c2 {
		t.Fatal("AddVertex must invalidate the frozen CSR")
	}
	if c3.NumVertices() != g.NumVertices() {
		t.Fatalf("rebuilt CSR has %d vertices, want %d", c3.NumVertices(), g.NumVertices())
	}
	csrInvariants(t, g, c3)
	// Attribute updates are not topology: the snapshot survives.
	if err := g.SetVertexAttr(a, "name", value.NewString("renamed")); err != nil {
		t.Fatal(err)
	}
	if g.Freeze() != c3 {
		t.Fatal("SetVertexAttr must not invalidate the frozen CSR")
	}
}

func TestFreezeEmptyGraph(t *testing.T) {
	s := NewSchema()
	if _, err := s.AddVertexType("V"); err != nil {
		t.Fatal(err)
	}
	g := New(s)
	c := g.Freeze()
	if c.NumVertices() != 0 || c.NumHalfEdges() != 0 {
		t.Fatalf("empty graph CSR: %d vertices, %d halves", c.NumVertices(), c.NumHalfEdges())
	}
}

// checkSegmentRuns compares every (vertex, Type, Dir) run of c with
// g.Neighbors filtered to that type and direction, in order, and the
// CSR degree methods with half-edge counts taken from g.Neighbors.
func checkSegmentRuns(t *testing.T, what string, g *Graph, c *CSR) {
	t.Helper()
	nTypes := len(g.Schema.EdgeTypes())
	for v := VID(0); int(v) < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		out := 0
		for typ := 0; typ < nTypes; typ++ {
			outOfType := 0
			for _, d := range []Dir{DirOut, DirIn, DirUndir} {
				var want []HalfEdge
				for _, h := range adj {
					if int(h.Type) == typ && h.Dir == d {
						want = append(want, h)
					}
				}
				base, ext := c.Run(v, int16(typ), d)
				got := append(append([]HalfEdge(nil), base...), ext...)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: v%d type %d dir %v: run %v (base %d + ext %d), Neighbors filtered %v",
						what, v, typ, d, got, len(base), len(ext), want)
				}
				if d != DirIn {
					outOfType += len(want)
				}
			}
			if got := c.OutDegreeOfType(v, typ); got != outOfType {
				t.Fatalf("%s: v%d OutDegreeOfType(%d) = %d, want %d", what, v, typ, got, outOfType)
			}
			out += outOfType
		}
		if got := c.OutDegree(v); got != out {
			t.Fatalf("%s: v%d OutDegree = %d, want %d", what, v, got, out)
		}
		if got := c.Degree(v); got != len(adj) {
			t.Fatalf("%s: v%d Degree = %d, want %d", what, v, got, len(adj))
		}
	}
}

// TestCSRSegmentsMatchNeighbors pins the order contract typed hops and
// degree reads rely on: a (Type, Dir) run, base then ext, is exactly
// Graph.Neighbors' sublist of that type and direction. The graphs fold
// often and carry parallel edges and both kinds of self-loop; each is
// checked through a patched CSR (post-fold delta edges) and through a
// snapshot pinned before its last fold.
func TestCSRSegmentsMatchNeighbors(t *testing.T) {
	patched, private := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g, pinned := BuildRandomChurnGraph(seed)
		snap := g.Snapshot()
		c := snap.Freeze()
		if c.HasExt() {
			patched++
		}
		csrInvariants(t, snap, c)
		checkSegmentRuns(t, fmt.Sprintf("seed %d head", seed), snap, c)
		if pinned.NumEdges() < g.MVCCStats().BaseEdges {
			private++
		}
		pc := pinned.Freeze()
		csrInvariants(t, pinned, pc)
		checkSegmentRuns(t, fmt.Sprintf("seed %d pinned", seed), pinned, pc)
	}
	if patched == 0 || private == 0 {
		t.Fatalf("paths not exercised: %d patched CSRs, %d pinned-before-fold snapshots", patched, private)
	}
}
