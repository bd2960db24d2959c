package ldbc

import (
	"testing"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return Generate(Config{SF: 0.2, Seed: 11})
}

func TestGenerateShapes(t *testing.T) {
	g := smallGraph(t)
	if n := len(g.VerticesOfType("Person")); n != 200 {
		t.Errorf("persons = %d, want 200", n)
	}
	for _, typ := range []string{"City", "Country", "Company", "Tag", "Forum", "Post", "Comment"} {
		if len(g.VerticesOfType(typ)) == 0 {
			t.Errorf("no %s vertices", typ)
		}
	}
	if g.Schema.EdgeType("Knows").Directed {
		t.Error("Knows must be undirected (SNB)")
	}
	// Determinism.
	g2 := Generate(Config{SF: 0.2, Seed: 11})
	if g.NumVertices() != g2.NumVertices() || g.NumEdges() != g2.NumEdges() {
		t.Error("generation must be deterministic per seed")
	}
	g3 := Generate(Config{SF: 0.2, Seed: 12})
	if g.NumEdges() == g3.NumEdges() {
		t.Log("different seeds produced the same edge count (possible but unlikely)")
	}
	// Every person has a city and a company.
	for _, p := range g.VerticesOfType("Person") {
		hasCity, hasCompany := false, false
		for _, h := range g.Neighbors(p) {
			switch g.EdgeTypeOf(h.Edge).Name {
			case "PersonLocatedIn":
				hasCity = true
			case "WorkAt":
				hasCompany = true
			}
		}
		if !hasCity || !hasCompany {
			t.Fatalf("person %d missing city/company", p)
		}
	}
}

// runIC installs and runs one IC query under the given semantics.
func runIC(t *testing.T, g *graph.Graph, sem match.Semantics, short string, h int, args map[string]value.Value) *core.Result {
	t.Helper()
	e := core.New(g, core.Options{Semantics: sem})
	if err := e.Install(ICQueries(h)[short]); err != nil {
		t.Fatalf("install %s h=%d: %v", short, h, err)
	}
	res, err := e.Run(ICName(short, h), args)
	if err != nil {
		t.Fatalf("run %s h=%d: %v", short, h, err)
	}
	return res
}

func seedPerson(t *testing.T, g *graph.Graph) value.Value {
	t.Helper()
	p, ok := g.VertexByKey("Person", "person0")
	if !ok {
		t.Fatal("person0 missing")
	}
	return value.NewVertex(int64(p))
}

// TestICQueriesAgreeAcrossSemantics reproduces the paper's observation
// that the IC results coincide under all-shortest-paths and
// non-repeated-edge semantics (the DISTINCT friend set is identical),
// while the evaluation strategies differ completely.
func TestICQueriesAgreeAcrossSemantics(t *testing.T) {
	g := smallGraph(t)
	p := seedPerson(t, g)
	k := value.NewInt(10)
	argsOf := map[string]map[string]value.Value{
		"ic3":  {"p": p, "countryX": value.NewString("Country-1"), "countryY": value.NewString("Country-2"), "k": k},
		"ic5":  {"p": p, "minDate": graph.MustDatetime("2010-06-01"), "k": k},
		"ic6":  {"p": p, "tagName": value.NewString("Tag-3"), "k": k},
		"ic9":  {"p": p, "maxDate": graph.MustDatetime("2012-06-01"), "k": k},
		"ic11": {"p": p, "countryName": value.NewString("Country-0"), "maxYear": value.NewInt(2005), "k": k},
	}
	for short, args := range argsOf {
		for _, h := range []int{2, 3} {
			asp := runIC(t, g, match.AllShortestPaths, short, h, args)
			nre := runIC(t, g, match.NonRepeatedEdge, short, h, args)
			ta, tn := resultTable(asp), resultTable(nre)
			if ta == nil || tn == nil {
				t.Fatalf("%s h=%d: missing result tables", short, h)
			}
			if len(ta.Rows) == 0 {
				t.Errorf("%s h=%d: empty result; widen the generator or parameters", short, h)
			}
			if !tablesEqual(ta, tn) {
				t.Errorf("%s h=%d: results differ between ASP and NRE:\n%s\nvs\n%s", short, h, ta, tn)
			}
		}
	}
}

func resultTable(r *core.Result) *core.Table {
	if r.Returned != nil {
		return r.Returned
	}
	if len(r.Printed) > 0 {
		return r.Printed[0]
	}
	return nil
}

func tablesEqual(a, b *core.Table) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !value.Equal(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestIC3Oracle validates ic3 against a native Go implementation.
func TestIC3Oracle(t *testing.T) {
	g := smallGraph(t)
	pv, _ := g.VertexByKey("Person", "person0")
	h := 3
	res := runIC(t, g, match.AllShortestPaths, "ic3", h, map[string]value.Value{
		"p":        value.NewVertex(int64(pv)),
		"countryX": value.NewString("Country-1"),
		"countryY": value.NewString("Country-2"),
		"k":        value.NewInt(1000),
	})
	// Oracle: BFS over Knows to depth h, then count located messages.
	friends := knowsWithin(g, pv, h)
	delete(friends, pv)
	wantRows := 0
	for f := range friends {
		x, y := 0, 0
		for _, hh := range g.Neighbors(f) {
			if g.EdgeTypeOf(hh.Edge).Name != "CommentHasCreator" || hh.Dir != graph.DirIn {
				continue
			}
			m := hh.To
			for _, h2 := range g.Neighbors(m) {
				if g.EdgeTypeOf(h2.Edge).Name != "CommentLocatedIn" || h2.Dir != graph.DirOut {
					continue
				}
				cn, _ := g.VertexAttr(h2.To, "name")
				switch cn.Str() {
				case "Country-1":
					x++
				case "Country-2":
					y++
				}
			}
		}
		if x > 0 && y > 0 {
			wantRows++
		}
	}
	if len(res.Returned.Rows) != wantRows {
		t.Errorf("ic3 rows = %d, oracle %d", len(res.Returned.Rows), wantRows)
	}
	if wantRows == 0 {
		t.Error("oracle found no qualifying friends; enlarge the generator")
	}
}

// knowsWithin is a BFS oracle over the undirected Knows edges.
func knowsWithin(g *graph.Graph, src graph.VID, h int) map[graph.VID]bool {
	seen := map[graph.VID]bool{src: true}
	frontier := []graph.VID{src}
	for d := 0; d < h; d++ {
		var next []graph.VID
		for _, v := range frontier {
			for _, hh := range g.Neighbors(v) {
				if g.EdgeTypeOf(hh.Edge).Name != "Knows" {
					continue
				}
				if !seen[hh.To] {
					seen[hh.To] = true
					next = append(next, hh.To)
				}
			}
		}
		frontier = next
	}
	return seen
}

// TestIC9HeapOrdering checks the HeapAccum top-k output is sorted by
// date descending and bounded.
func TestIC9HeapOrdering(t *testing.T) {
	g := smallGraph(t)
	p := seedPerson(t, g)
	res := runIC(t, g, match.AllShortestPaths, "ic9", 2, map[string]value.Value{
		"p": p, "maxDate": graph.MustDatetime("2012-06-01"), "k": value.NewInt(20),
	})
	tab := res.Printed[0]
	if len(tab.Rows) != 1 {
		t.Fatalf("ic9 print shape: %v", tab)
	}
	heap := tab.Rows[0][0]
	if heap.Kind() != value.KindList {
		t.Fatalf("heap value kind %v", heap.Kind())
	}
	msgs := heap.Elems()
	if len(msgs) == 0 || len(msgs) > 20 {
		t.Fatalf("heap size %d", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		prev := msgs[i-1].Elems()[0].Datetime()
		cur := msgs[i].Elems()[0].Datetime()
		if cur > prev {
			t.Fatal("heap not sorted by creationDate DESC")
		}
	}
	limit := graph.MustDatetime("2012-06-01").Datetime()
	for _, m := range msgs {
		if m.Elems()[0].Datetime() >= limit {
			t.Fatal("message past maxDate in heap")
		}
	}
}

// TestAppendixBQueriesAgree verifies Qgs and Qacc produce the same
// group counts (the shared aggregates are identical; Qgs merely also
// computes unwanted ones).
func TestAppendixBQueriesAgree(t *testing.T) {
	g := Generate(Config{SF: 0.1, Seed: 3})
	args := map[string]value.Value{
		"lo": graph.MustDatetime("2010-01-01"),
		"hi": graph.MustDatetime("2012-12-31"),
	}
	egs := core.New(g, core.Options{})
	if err := egs.Install(QGS()); err != nil {
		t.Fatal(err)
	}
	rgs, err := egs.Run("Qgs", args)
	if err != nil {
		t.Fatal(err)
	}
	eacc := core.New(g, core.Options{})
	if err := eacc.Install(QACC()); err != nil {
		t.Fatal(err)
	}
	racc, err := eacc.Run("Qacc", args)
	if err != nil {
		t.Fatal(err)
	}
	// PRINT size(...) x3 — group counts per grouping set must agree.
	for i := 0; i < 3; i++ {
		a := rgs.Printed[i].Rows[0][0].Int()
		b := racc.Printed[i].Rows[0][0].Int()
		if a != b || a == 0 {
			t.Errorf("grouping set %d: Qgs groups %d vs Qacc groups %d", i+1, a, b)
		}
	}
	// The per-year heaps (wanted in both) must be identical.
	gsVal, _ := rgs.Global("gs1")
	accVal, _ := racc.Global("peryear")
	gsPairs := gsVal.Pairs()
	accPairs := accVal.Pairs()
	if len(gsPairs) != len(accPairs) {
		t.Fatalf("per-year groups differ: %d vs %d", len(gsPairs), len(accPairs))
	}
	for i := range gsPairs {
		if !value.Equal(gsPairs[i].Key, accPairs[i].Key) {
			t.Fatalf("group keys differ at %d", i)
		}
		// Qgs rows carry 8 aggregates, Qacc rows 6; the first six
		// (the heaps) must coincide.
		gv := gsPairs[i].Val.Elems()
		av := accPairs[i].Val.Elems()
		for j := 0; j < 6; j++ {
			if !value.Equal(gv[j], av[j]) {
				t.Errorf("year %v heap %d differs", gsPairs[i].Key, j)
			}
		}
	}
}
