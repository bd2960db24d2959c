package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

// TestEngineCountsMatchSDMC property-checks that the full engine
// (pattern → binding table → ACCUM with multiplicity shortcut) agrees
// with the match-level SDMC counter on random mixed graphs and
// patterns: the GSQL path-count query must report exactly
// match.CountASPCtx's multiplicity for every reachable pair.
func TestEngineCountsMatchSDMC(t *testing.T) {
	patterns := []string{"D1>*", "(D1>|D2>)*", "U*1..3", "D1>.(U|<D2)*", "_*1..2"}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(3+r.Intn(5), 2+r.Intn(10), seed)
		pat := patterns[r.Intn(len(patterns))]
		d := darpe.MustCompile(pat)
		src := graph.VID(r.Intn(g.NumVertices()))
		counts := countASP(t, g, d, src)

		e := New(g, Options{})
		q := `
CREATE QUERY CountPaths(string srcName) {
  SumAccum<int> @n;
  R = SELECT t
      FROM V:s -(` + pat + `)- V:t
      WHERE s.name == srcName
      ACCUM t.@n += 1;
  PRINT R[R.name, R.@n];
}`
		if err := e.Install(q); err != nil {
			t.Log(err)
			return false
		}
		res, err := e.Run("CountPaths", map[string]value.Value{
			"srcName": value.NewString(g.VertexKey(src)),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		got := map[string]int64{}
		for _, row := range res.Printed[0].Rows {
			got[row[0].Str()] = row[1].Int()
		}
		for v := 0; v < g.NumVertices(); v++ {
			want := int64(0)
			if counts.Dist[v] >= 0 {
				want = int64(counts.Mult[v])
			}
			if got[g.VertexKey(graph.VID(v))] != want {
				t.Logf("seed %d pattern %s: vertex %s engine=%d sdmc=%d",
					seed, pat, g.VertexKey(graph.VID(v)), got[g.VertexKey(graph.VID(v))], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOrderSensitiveAccumWithMultiplicity documents the tractable-class
// boundary of Theorem 7.1 at run time: feeding a ListAccum through a
// pattern whose bindings carry astronomically many path choices fails
// with the replication diagnostic instead of attempting to materialize
// 2^40 inputs.
func TestOrderSensitiveAccumWithMultiplicity(t *testing.T) {
	g := graph.BuildDiamondChain(40)
	e := New(g, Options{})
	src := `
CREATE QUERY Collect(string srcName, string tgtName) {
  ListAccum<string> @@names;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM @@names += t.name;
}
`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	_, err := e.Run("Collect", map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString("v40"),
	})
	if err == nil || !strings.Contains(err.Error(), "multiplicity too large") {
		t.Errorf("order-sensitive accumulator under 2^40 multiplicity: %v", err)
	}
	// The same query over a tame multiplicity works.
	res, err := e.Run("Collect", map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString("v3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Global("names"); len(got.Elems()) != 8 {
		t.Errorf("list under multiplicity 8: %v", got)
	}
}

// TestEnumerationBudgetSurfacesThroughEngine checks that the
// enumeration baselines report their budget exhaustion as a clean
// query error (the bench harness's "timeout" cells).
func TestEnumerationBudgetSurfacesThroughEngine(t *testing.T) {
	g := graph.BuildDiamondChain(30)
	e := New(g, Options{
		Semantics:  match.NonRepeatedEdge,
		EnumLimits: match.EnumLimits{MaxSteps: 100},
	})
	if err := e.Install(qnSrc); err != nil {
		t.Fatal(err)
	}
	_, err := e.Run("Qn", map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString("v30"),
	})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("budget exhaustion must surface: %v", err)
	}
}

// TestSaturatedMultiplicityIntoSum checks that counting past 2^63 into
// an int SumAccum behaves deterministically (saturating multiplication
// upstream, no wraparound panic).
func TestSaturatedMultiplicityIntoSum(t *testing.T) {
	g := graph.BuildDiamondChain(70)
	e := New(g, Options{})
	if err := e.Install(qnSrc); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run("Qn", map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString("v70"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2^70 saturates the uint64 multiplicity; the int accumulator
	// receives the saturated count. The exact value is documented as
	// saturated rather than meaningful; it must simply not be small.
	if got := res.Printed[0].Rows[0][1].Int(); got > -1 && got < 1<<40 {
		t.Errorf("saturated count suspiciously small: %d", got)
	}
}

// TestAblationRefusesSaturatedMultiplicity guards the disabled-
// shortcut mode against astronomically replicated acc-executions.
func TestAblationRefusesSaturatedMultiplicity(t *testing.T) {
	g := graph.BuildDiamondChain(40) // 2^40 > the replay limit
	e := New(g, Options{NoMultiplicityShortcut: true})
	if err := e.Install(qnSrc); err != nil {
		t.Fatal(err)
	}
	_, err := e.Run("Qn", map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString("v40"),
	})
	if err == nil || !strings.Contains(err.Error(), "replay limit") {
		t.Errorf("ablation with 2^40 multiplicity: %v", err)
	}
}

// TestPostAccumRejectsEdgeAlias pins the diagnostic for edge aliases
// in POST-ACCUM.
func TestPostAccumRejectsEdgeAlias(t *testing.T) {
	e := New(graph.BuildSalesGraph(graph.SalesGraphConfig{
		Customers: 3, Products: 3, Sales: 5, Likes: 0, Seed: 1,
	}), Options{})
	if err := e.Install(`
CREATE QUERY EdgeInPost() {
  SumAccum<int> @@n;
  S = SELECT c FROM Customer:c -(Bought>:e)- Product:p
      POST_ACCUM @@n += e.quantity;
}`); err != nil {
		t.Fatal(err)
	}
	_, err := e.Run("EdgeInPost", nil)
	if err == nil || !strings.Contains(err.Error(), "edge alias") {
		t.Errorf("edge alias in POST-ACCUM: %v", err)
	}
}
