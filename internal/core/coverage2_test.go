package core

import (
	"strings"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/value"
)

// TestParamPinnedTarget exercises the alias-equals-parameter pinning
// on hop targets and counted hops (Fig. 3's device, in both pattern
// positions).
func TestParamPinnedTarget(t *testing.T) {
	e := salesEngine(t, Options{})
	g := e.Graph()
	c0, _ := g.VertexByKey("Customer", "c0")
	// Target pinned: only edges landing on parameter c count.
	src := `
CREATE QUERY Inbound(vertex<Customer> c) {
  SumAccum<int> @@n;
  S = SELECT p
      FROM Product:p -(<Bought)- Customer:c
      ACCUM @@n += 1;
  RETURN @@n;
}
`
	res, err := e.InstallAndRun(src, map[string]value.Value{"c": value.NewVertex(int64(c0))})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name != "Bought" {
			continue
		}
		s, _ := g.EdgeEndpoints(eid)
		if s == c0 {
			want++
		}
	}
	if got := res.Returned.Rows[0][0].Int(); got != want {
		t.Errorf("inbound to c0 = %d, want %d", got, want)
	}
	if want == 0 {
		t.Error("c0 bought nothing; reseed the generator")
	}

	// Counted hop with pinned target: paths ending exactly at c.
	g2 := graph.BuildDiamondChain(4)
	e2 := New(g2, Options{})
	v4, _ := g2.VertexByKey("V", "v4")
	res2, err := e2.InstallAndRun(`
CREATE QUERY PathsTo(vertex<V> tgt) {
  SumAccum<int> @@n;
  S = SELECT tgt
      FROM V:s -(E>*1..)- V:tgt
      WHERE s.name == "v0"
      ACCUM @@n += 1;
  RETURN @@n;
}`, map[string]value.Value{"tgt": value.NewVertex(int64(v4))})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Returned.Rows[0][0].Int(); got != 16 {
		t.Errorf("paths to v4 = %d, want 16", got)
	}
}

// TestParamSeedOutsideSet checks that a parameter vertex outside the
// named seed set yields no bindings instead of wrong ones.
func TestParamSeedOutsideSet(t *testing.T) {
	e := salesEngine(t, Options{})
	g := e.Graph()
	p0, _ := g.VertexByKey("Product", "p0") // a Product, seeded as Customer
	res, err := e.InstallAndRun(`
CREATE QUERY Mismatch(vertex<Customer> c) {
  SumAccum<int> @@n;
  S = SELECT x FROM Customer:c -(Bought>)- Product:x ACCUM @@n += 1;
  RETURN @@n;
}`, map[string]value.Value{"c": value.NewVertex(int64(p0))})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Returned.Rows[0][0].Int(); got != 0 {
		t.Errorf("type-mismatched seed must bind nothing, got %d", got)
	}
}

// TestParallelEdgesThenStarCompress exercises binding-table
// compression (duplicate rows merging with multiplicity addition)
// through parallel edges followed by a counted hop.
func TestParallelEdgesThenStarCompress(t *testing.T) {
	s := graph.NewSchema()
	if _, err := s.AddVertexType("V", graph.AttrDef{Name: "name", Type: graph.AttrString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdgeType("E", true); err != nil {
		t.Fatal(err)
	}
	g := graph.New(s)
	a, _ := g.AddVertex("V", "a", map[string]value.Value{"name": value.NewString("a")})
	b, _ := g.AddVertex("V", "b", map[string]value.Value{"name": value.NewString("b")})
	c, _ := g.AddVertex("V", "c", map[string]value.Value{"name": value.NewString("c")})
	for i := 0; i < 3; i++ {
		if _, err := g.AddEdge("E", a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := g.AddEdge("E", b, c, nil); err != nil {
			t.Fatal(err)
		}
	}
	e := New(g, Options{})
	res, err := e.InstallAndRun(`
CREATE QUERY Multi() {
  SumAccum<int> @paths;
  S = SELECT t
      FROM V:s -(E>)- V:m -(E>*)- V:t
      WHERE s.name == "a" AND t.name == "c"
      ACCUM t.@paths += 1;
  PRINT S[S.@paths];
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 parallel a->b edges × 2 parallel b->c edges = 6 paths.
	if got := res.Printed[0].Rows[0][0].Int(); got != 6 {
		t.Errorf("paths = %d, want 6", got)
	}
}

// TestExplainCoversStatementForms renders plans for every statement
// shape the explainer knows.
func TestExplainCoversStatementForms(t *testing.T) {
	e := salesEngine(t, Options{NoMultiplicityShortcut: true})
	src := `
CREATE QUERY Everything(int k) {
  SumAccum<int> @@n;
  ListAccum<int> @@l;
  x = 1;
  All = {Customer.*};
  More = All UNION All;
  @@n = 0;
  WHILE @@n < 2 LIMIT k DO
    IF @@n == 0 THEN
      @@n += 1;
    ELSE
      @@n += 1;
    END;
  END;
  FOREACH v IN @@l DO
    @@n += v;
  END;
  SELECT p.category, count(*) AS n INTO T
  FROM Customer:c -(Bought>:e)- Product:p
  ACCUM @@n += 0
  GROUP BY GROUPING SETS ((p.category), ())
  HAVING count(*) >= 0
  ORDER BY n DESC
  LIMIT k;
  PRINT T;
  RETURN @@n;
}
`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain("Everything")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ORDER-SENSITIVE",
		"x = <scalar expression>",
		"vertex set {Customer}",
		"global accumulator update (=)",
		"WHILE loop with iteration cap",
		"IF/THEN/ELSE",
		"FOREACH v",
		"edge var \"e\"",
		"2 grouping set(s)",
		"output INTO T",
		"ORDER BY 1 key(s)",
		"LIMIT",
		"PRINT (1 item(s))",
		"RETURN",
		"multiplicity shortcut off",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// Set-op assignments render too.
	if !strings.Contains(plan, "More = vertex-set algebra (union)") {
		t.Errorf("set-op assignment missing:\n%s", plan)
	}
}

// TestRunsAreIsolated: accumulator state is per-run; repeated runs of
// the same query produce identical results.
func TestRunsAreIsolated(t *testing.T) {
	e := salesEngine(t, Options{})
	if err := e.Install(figure2Src); err != nil {
		t.Fatal(err)
	}
	r1, err := e.Run("RevenuePerToyAndCustomer", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run("RevenuePerToyAndCustomer", nil)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := r1.Global("totalRevenue")
	v2, _ := r2.Global("totalRevenue")
	if !value.Equal(v1, v2) {
		t.Errorf("state leaked across runs: %v vs %v", v1, v2)
	}
	if len(r1.Tables["PerCust"].Rows) != len(r2.Tables["PerCust"].Rows) {
		t.Error("table shapes differ across runs")
	}
}

// TestConcurrentRuns: one engine serves concurrent queries safely
// (per-run state; shared caches are mutex-guarded). Run under -race
// in CI.
func TestConcurrentRuns(t *testing.T) {
	e := salesEngine(t, Options{})
	if err := e.Install(figure2Src); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			_, err := e.Run("RevenuePerToyAndCustomer", nil)
			errs <- err
		}()
	}
	for i := 0; i < goroutines; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent run: %v", err)
		}
	}
}
