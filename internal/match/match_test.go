package match

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

func vid(t *testing.T, g *graph.Graph, typ, key string) graph.VID {
	t.Helper()
	v, ok := g.VertexByKey(typ, key)
	if !ok {
		t.Fatalf("vertex %s/%s not found", typ, key)
	}
	return v
}

// TestExample9LegalityFlavors reproduces Example 9 of the paper: on
// graph G1 with pattern E>*, the multiplicity of the binding (1, 5) is
// 3, 4, 2 and 1 under non-repeated-vertex, non-repeated-edge,
// all-shortest-paths and SparQL-existence semantics respectively.
func TestExample9LegalityFlavors(t *testing.T) {
	g := graph.BuildG1()
	d := darpe.MustCompile("E>*")
	src, dst := vid(t, g, "V", "1"), vid(t, g, "V", "5")

	dist, mult, ok, err := CountASPPair(g, d, src, dst)
	if err != nil || !ok || mult != 2 || dist != 4 {
		t.Errorf("ASP: dist=%d mult=%d ok=%v err=%v, want dist=4 mult=2", dist, mult, ok, err)
	}
	nre, err := CountEnumPair(g, d, src, dst, NonRepeatedEdge, EnumLimits{})
	if err != nil || nre != 4 {
		t.Errorf("NRE: mult=%d err=%v, want 4", nre, err)
	}
	nrv, err := CountEnumPair(g, d, src, dst, NonRepeatedVertex, EnumLimits{})
	if err != nil || nrv != 3 {
		t.Errorf("NRV: mult=%d err=%v, want 3", nrv, err)
	}
	ex, err := CountExists(g, d, src)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mult[dst] != 1 {
		t.Errorf("Exists: mult=%d, want 1", ex.Mult[dst])
	}
}

// TestExample10ShortestBeyondNonRepeating reproduces Example 10: on
// graph G2 with pattern E>*.F>.E>*, no path from 1 to 4 is legal under
// either non-repeating semantics, but exactly one (which repeats both
// a vertex and an edge) is legal under all-shortest-paths.
func TestExample10ShortestBeyondNonRepeating(t *testing.T) {
	g := graph.BuildG2()
	d := darpe.MustCompile("E>*.F>.E>*")
	src, dst := vid(t, g, "V", "1"), vid(t, g, "V", "4")

	dist, mult, ok, err := CountASPPair(g, d, src, dst)
	if err != nil || !ok || mult != 1 || dist != 7 {
		t.Errorf("ASP: dist=%d mult=%d ok=%v err=%v, want dist=7 mult=1", dist, mult, ok, err)
	}
	if n, err := CountEnumPair(g, d, src, dst, NonRepeatedEdge, EnumLimits{}); err != nil || n != 0 {
		t.Errorf("NRE: %d %v, want 0", n, err)
	}
	if n, err := CountEnumPair(g, d, src, dst, NonRepeatedVertex, EnumLimits{}); err != nil || n != 0 {
		t.Errorf("NRV: %d %v, want 0", n, err)
	}
}

// TestFixedUniqueLengthCycle reproduces the Section 6.1 cycle example:
// the fixed-length pattern A>.(B>|D>)._>.A> applied to the 3-cycle
// v-A->u-B->w-C->v matches (v, u) under all-shortest-paths (the path
// wraps the cycle, revisiting vertex v and the A edge) but matches
// nothing under the non-repeating flavors.
func TestFixedUniqueLengthCycle(t *testing.T) {
	g := graph.BuildABCCycle()
	d := darpe.MustCompile("A>.(B>|D>)._>.A>")
	v, u := vid(t, g, "V", "v"), vid(t, g, "V", "u")

	dist, mult, ok, err := CountASPPair(g, d, v, u)
	if err != nil || !ok || dist != 4 || mult != 1 {
		t.Errorf("ASP: dist=%d mult=%d ok=%v err=%v, want dist=4 mult=1", dist, mult, ok, err)
	}
	if n, _ := CountEnumPair(g, d, v, u, NonRepeatedEdge, EnumLimits{}); n != 0 {
		t.Errorf("NRE found %d matches, want 0", n)
	}
	if n, _ := CountEnumPair(g, d, v, u, NonRepeatedVertex, EnumLimits{}); n != 0 {
		t.Errorf("NRV found %d matches, want 0", n)
	}
	// Fixed-unique-length patterns: ASP equals unrestricted semantics.
	fl, fixed := darpe.FixedLength(darpe.MustParse("A>.(B>|D>)._>.A>"))
	if !fixed || fl != 4 {
		t.Fatalf("FixedLength = %d,%v", fl, fixed)
	}
	unr, err := CountEnumPair(g, d, v, u, UnrestrictedBounded, EnumLimits{MaxLen: fl})
	if err != nil || unr != 1 {
		t.Errorf("unrestricted: %d %v, want 1", unr, err)
	}
}

// TestDiamondChainCounts reproduces Example 11: on the diamond chain,
// all three semantics coincide and Q_k counts 2^k paths from v0 to vk.
func TestDiamondChainCounts(t *testing.T) {
	g := graph.BuildDiamondChain(12)
	d := darpe.MustCompile("E>*")
	v0 := vid(t, g, "V", "v0")
	c := countASP(t, g, d, v0)
	for k := 1; k <= 12; k++ {
		vk := vid(t, g, "V", "v"+itoa(k))
		want := uint64(1) << uint(k)
		if c.Mult[vk] != want || c.Dist[vk] != int32(2*k) {
			t.Errorf("ASP v%d: dist=%d mult=%d, want dist=%d mult=%d", k, c.Dist[vk], c.Mult[vk], 2*k, want)
		}
	}
	// Cross-check a few against the enumerators.
	for _, k := range []int{1, 4, 8} {
		vk := vid(t, g, "V", "v"+itoa(k))
		want := uint64(1) << uint(k)
		if n, err := CountEnumPair(g, d, v0, vk, NonRepeatedEdge, EnumLimits{}); err != nil || n != want {
			t.Errorf("NRE v%d: %d %v, want %d", k, n, err, want)
		}
		if n, err := CountEnumPair(g, d, v0, vk, NonRepeatedVertex, EnumLimits{}); err != nil || n != want {
			t.Errorf("NRV v%d: %d %v, want %d", k, n, err, want)
		}
		dist, mult, err := CountASPMaterializedPair(g, d, v0, vk, EnumLimits{})
		if err != nil || mult != want || dist != 2*k {
			t.Errorf("ASP-mat v%d: dist=%d mult=%d err=%v, want dist=%d mult=%d", k, dist, mult, err, 2*k, want)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestEmptyPathMatchesKleene(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	d := darpe.MustCompile("E>*")
	v0 := vid(t, g, "V", "v0")
	dist, mult, ok, err := CountASPPair(g, d, v0, v0)
	if err != nil || !ok || dist != 0 || mult != 1 {
		t.Errorf("empty path: dist=%d mult=%d ok=%v err=%v, want 0/1/true", dist, mult, ok, err)
	}
}

func TestUndirectedTraversal(t *testing.T) {
	// Undirected edges satisfy the bare-type symbol in both
	// directions, and a Kleene over it can bounce back and forth.
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
	if _, err := g.AddEdge("K", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("K", c, b, nil); err != nil { // note reversed insertion order
		t.Fatal(err)
	}
	d := darpe.MustCompile("K*1..2")
	cnt := countASP(t, g, d, a)
	if cnt.Dist[b] != 1 || cnt.Mult[b] != 1 {
		t.Errorf("a~b: dist=%d mult=%d", cnt.Dist[b], cnt.Mult[b])
	}
	if cnt.Dist[c] != 2 || cnt.Mult[c] != 1 {
		t.Errorf("a~c: dist=%d mult=%d", cnt.Dist[c], cnt.Mult[c])
	}
	// Directed adornments never match undirected edges.
	dd := darpe.MustCompile("K>")
	cnt = countASP(t, g, dd, a)
	if cnt.HasPath(b) {
		t.Error("K> must not match an undirected K edge")
	}
}

func TestParallelEdgesCountSeparately(t *testing.T) {
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
		if _, err := g.AddEdge("E", a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	d := darpe.MustCompile("E>")
	_, mult, ok, err := CountASPPair(g, d, a, b)
	if err != nil || !ok || mult != 3 {
		t.Errorf("parallel edges: mult=%d ok=%v err=%v, want 3", mult, ok, err)
	}
	if n, err := CountEnumPair(g, d, a, b, NonRepeatedEdge, EnumLimits{}); err != nil || n != 3 {
		t.Errorf("NRE parallel: %d %v", n, err)
	}
}

func TestSaturation(t *testing.T) {
	g := graph.BuildDiamondChain(70) // 2^70 shortest paths > MaxUint64
	d := darpe.MustCompile("E>*")
	v0, _ := g.VertexByKey("V", "v0")
	c := countASP(t, g, d, v0)
	if !c.Saturated {
		t.Error("counting 2^70 paths must saturate")
	}
	v70, _ := g.VertexByKey("V", "v70")
	if c.Mult[v70] != MaxMult {
		t.Errorf("saturated mult = %d, want MaxMult", c.Mult[v70])
	}
}

func TestEnumBudget(t *testing.T) {
	g := graph.BuildDiamondChain(25)
	d := darpe.MustCompile("E>*")
	v0, _ := g.VertexByKey("V", "v0")
	if _, err := CountEnumCtx(context.Background(), g, d, v0, NonRepeatedEdge, EnumLimits{MaxSteps: 1000}); err != ErrBudget {
		t.Errorf("tiny budget must yield ErrBudget, got %v", err)
	}
	v25, _ := g.VertexByKey("V", "v25")
	if _, _, err := CountASPMaterializedPair(g, d, v0, v25, EnumLimits{MaxSteps: 10}); err != ErrBudget {
		t.Errorf("materialized with tiny budget must yield ErrBudget, got %v", err)
	}
}

func TestCountEnumRejectsWrongSemantics(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	d := darpe.MustCompile("E>*")
	if _, err := CountEnumCtx(context.Background(), g, d, 0, AllShortestPaths, EnumLimits{}); err == nil {
		t.Error("CountEnumCtx must reject AllShortestPaths")
	}
	if _, err := CountEnumCtx(context.Background(), g, d, 0, UnrestrictedBounded, EnumLimits{}); err == nil {
		t.Error("UnrestrictedBounded without MaxLen must error")
	}
}

// TestCountASPAll runs the all-paths flavor — one SourceCounter run
// per source, reusing one scratch — and checks an exact count.
func TestCountASPAll(t *testing.T) {
	g := graph.BuildDiamondChain(3)
	d := darpe.MustCompile("E>*")
	all, err := countAll(context.Background(), g, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumVertices() {
		t.Fatalf("countAll size %d", len(all))
	}
	v0, _ := g.VertexByKey("V", "v0")
	v3, _ := g.VertexByKey("V", "v3")
	if all[v0].Mult[v3] != 8 {
		t.Errorf("all-paths flavor v0->v3 = %d, want 8", all[v0].Mult[v3])
	}
}

// bruteCountByLength counts satisfying walks from src grouped by
// (target, length) via naive DFS up to maxLen — an independent oracle
// for CountASPCtx on small graphs.
func bruteCountByLength(g *graph.Graph, d *darpe.DFA, src graph.VID, maxLen int) map[graph.VID]map[int]uint64 {
	res := make(map[graph.VID]map[int]uint64)
	types := make(map[int16]int)
	for _, et := range g.Schema.EdgeTypes() {
		types[int16(et.ID)] = d.TypeIndexFor(et.Name)
	}
	var walk func(v graph.VID, q int, length int)
	walk = func(v graph.VID, q int, length int) {
		if d.Accepting(q) {
			m := res[v]
			if m == nil {
				m = make(map[int]uint64)
				res[v] = m
			}
			m[length]++
		}
		if length == maxLen {
			return
		}
		for _, h := range g.Neighbors(v) {
			var a darpe.Adorn
			switch h.Dir {
			case graph.DirOut:
				a = darpe.AdornFwd
			case graph.DirIn:
				a = darpe.AdornRev
			default:
				a = darpe.AdornUnd
			}
			if q2 := d.StepIdx(q, types[h.Type], a); q2 >= 0 {
				walk(h.To, q2, length+1)
			}
		}
	}
	walk(src, d.Start(), 0)
	return res
}

// TestCountASPAgainstBruteForce property-checks the polynomial SDMC
// counter against naive walk enumeration on random mixed graphs and
// random patterns (Theorem 6.1 correctness).
func TestCountASPAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(2+r.Intn(6), 1+r.Intn(12), seed)
		d := darpe.MustCompile(mixedPatterns[r.Intn(len(mixedPatterns))])
		src := graph.VID(r.Intn(g.NumVertices()))
		got := countASP(t, g, d, src)
		maxLen := 6
		oracle := bruteCountByLength(g, d, src, maxLen)
		for v := 0; v < g.NumVertices(); v++ {
			byLen := oracle[graph.VID(v)]
			// Oracle's shortest within the bound.
			oDist := -1
			for l := 0; l <= maxLen; l++ {
				if byLen[l] > 0 {
					oDist = l
					break
				}
			}
			gDist := int(got.Dist[v])
			if oDist == -1 {
				// ASP may find a longer-than-bound match; only check
				// that it does not report one within the bound.
				if gDist >= 0 && gDist <= maxLen {
					t.Logf("seed %d: v%d ASP dist %d but oracle found none <= %d", seed, v, gDist, maxLen)
					return false
				}
				continue
			}
			if gDist != oDist || got.Mult[v] != byLen[oDist] {
				t.Logf("seed %d: v%d ASP (dist=%d mult=%d) oracle (dist=%d mult=%d)",
					seed, v, gDist, got.Mult[v], oDist, byLen[oDist])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMaterializedAgainstCounting property-checks that the
// materializing ASP evaluator agrees with the counting evaluator.
func TestMaterializedAgainstCounting(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(2+r.Intn(5), 1+r.Intn(10), seed)
		d := darpe.MustCompile("(D1>|D2>|U)*")
		src := graph.VID(r.Intn(g.NumVertices()))
		dst := graph.VID(r.Intn(g.NumVertices()))
		if src == dst {
			return true
		}
		cd, cm, cok, err := CountASPPair(g, d, src, dst)
		if err != nil {
			t.Log(err)
			return false
		}
		md, mm, err := CountASPMaterializedPair(g, d, src, dst, EnumLimits{MaxSteps: 200_000})
		if err != nil {
			return true // budget; irrelevant for tiny graphs but be safe
		}
		mok := mm > 0
		if cok != mok {
			t.Logf("seed %d: reached mismatch count=%v mat=%v", seed, cok, mok)
			return false
		}
		if cok && (cd != md || cm != mm) {
			t.Logf("seed %d: count (%d,%d) vs materialized (%d,%d)", seed, cd, cm, md, mm)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSemanticsString(t *testing.T) {
	for s, want := range map[Semantics]string{
		AllShortestPaths:    "all-shortest-paths",
		NonRepeatedEdge:     "non-repeated-edge",
		NonRepeatedVertex:   "non-repeated-vertex",
		ShortestExists:      "shortest-exists",
		UnrestrictedBounded: "unrestricted-bounded",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestCountASPAllParallelAgreesWithSequential spreads the all-paths
// flavor over several SourceCounters (one per worker) and checks it
// against the reference kernel run from every source.
func TestCountASPAllParallelAgreesWithSequential(t *testing.T) {
	g := graph.BuildDiamondChain(8)
	d := darpe.MustCompile("E>*")
	seq := make([]*Counts, g.NumVertices())
	for v := range seq {
		seq[v] = countASPReference(g, d, graph.VID(v))
	}
	for _, workers := range []int{0, 1, 3, 16} {
		par, err := countAll(context.Background(), g, d, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: length %d", workers, len(par))
		}
		for v := range seq {
			for u := range seq[v].Mult {
				if seq[v].Mult[u] != par[v].Mult[u] || seq[v].Dist[u] != par[v].Dist[u] {
					t.Fatalf("workers=%d: mismatch at src %d dst %d", workers, v, u)
				}
			}
		}
	}
}
