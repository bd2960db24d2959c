package core

import (
	"fmt"
	"strings"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

// TestPerQuerySemanticsOverride exercises the Section 6.1 extension:
// the same pattern evaluated under different per-query SEMANTICS
// annotations on one engine.
func TestPerQuerySemanticsOverride(t *testing.T) {
	g := graph.BuildG1()
	e := New(g, Options{}) // engine default: all-shortest-paths
	install := func(name, sem string) {
		t.Helper()
		src := `
CREATE QUERY ` + name + `(string srcName, string tgtName) SEMANTICS ` + sem + ` {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.@pathCount];
}`
		if err := e.Install(src); err != nil {
			t.Fatal(err)
		}
	}
	install("QAsp", "asp")
	install("QNre", "nre")
	install("QNrv", "non_repeated_vertex")
	install("QExists", "exists")
	args := map[string]value.Value{
		"srcName": value.NewString("1"),
		"tgtName": value.NewString("5"),
	}
	want := map[string]int64{"QAsp": 2, "QNre": 4, "QNrv": 3, "QExists": 1}
	for name, w := range want {
		res, err := e.Run(name, args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Printed[0].Rows[0][0].Int(); got != w {
			t.Errorf("%s: count = %d, want %d (Example 9)", name, got, w)
		}
	}
	if err := e.Install(`CREATE QUERY Bad() SEMANTICS sideways {}`); err == nil {
		t.Error("unknown SEMANTICS must fail at parse time")
	}
}

// TestConditionalAccum exercises IF/THEN/ELSE inside ACCUM and
// POST-ACCUM clauses.
func TestConditionalAccum(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY SplitRevenue() {
  SumAccum<float> @@toys, @@other;
  SumAccum<int> @bigBuyer;
  S = SELECT c
      FROM Customer:c -(Bought>:e)- Product:p
      ACCUM float sp = e.quantity * p.listPrice,
            IF p.category == "toy" THEN
              @@toys += sp
            ELSE
              @@other += sp
            END
      POST_ACCUM IF c.@bigBuyer == 0 THEN c.@bigBuyer = 1 END;
  PRINT @@toys, @@other;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle.
	g := e.Graph()
	var toys, other float64
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name != "Bought" {
			continue
		}
		_, p := g.EdgeEndpoints(eid)
		qty, _ := g.EdgeAttr(eid, "quantity")
		price, _ := g.VertexAttr(p, "listPrice")
		cat, _ := g.VertexAttr(p, "category")
		sp := float64(qty.Int()) * price.Float()
		if cat.Str() == "toy" {
			toys += sp
		} else {
			other += sp
		}
	}
	if !approxEq(res.Printed[0].Rows[0][0].Float(), toys) {
		t.Errorf("toys = %v, want %v", res.Printed[0].Rows[0][0], toys)
	}
	if !approxEq(res.Printed[1].Rows[0][0].Float(), other) {
		t.Errorf("other = %v, want %v", res.Printed[1].Rows[0][0], other)
	}
}

// TestCaseExpressionAndIn exercises CASE WHEN and the IN operator.
func TestCaseExpressionAndIn(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY CaseAndIn() {
  SumAccum<int> @@toyish, @@pricey, @@medium, @@inSet;
  SetAccum<string> @@cats;
  S = SELECT p
      FROM Customer:c -(Bought>)- Product:p
      ACCUM @@cats += p.category,
            @@toyish += CASE WHEN p.category == "toy" THEN 1 ELSE 0 END,
            @@pricey += CASE WHEN p.listPrice > 50 THEN 1 WHEN p.listPrice > 20 THEN 0 END,
            @@medium += CASE WHEN p.listPrice <= 50 AND p.listPrice > 20 THEN 1 ELSE 0 END;
  IF "toy" IN @@cats THEN
    @@inSet += 1;
  END;
  IF NOT "jewelry" IN @@cats THEN
    @@inSet += 10;
  END;
  PRINT @@toyish, @@inSet;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle for @@toyish.
	g := e.Graph()
	var toyish int64
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name != "Bought" {
			continue
		}
		_, p := g.EdgeEndpoints(eid)
		cat, _ := g.VertexAttr(p, "category")
		if cat.Str() == "toy" {
			toyish++
		}
	}
	if got := res.Printed[0].Rows[0][0].Int(); got != toyish {
		t.Errorf("toyish = %d, want %d", got, toyish)
	}
	if got := res.Printed[1].Rows[0][0].Int(); got != 11 {
		t.Errorf("inSet = %d, want 11 (both IN checks pass)", got)
	}
}

// TestForeach iterates a collection accumulator's value.
func TestForeach(t *testing.T) {
	g := graph.BuildDiamondChain(3)
	e := New(g, Options{})
	src := `
CREATE QUERY Iterate() {
  SetAccum<int> @@lens;
  SumAccum<int> @@total;
  SumAccum<int> @@pairs;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM @@lens += 1, @@lens += 2, @@lens += 3;
  FOREACH x IN @@lens DO
    @@total += x;
  END;
  MapAccum<int, SumAccum<int>> @@m;
  RETURN @@total;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Returned.Rows[0][0].Int(); got != 6 {
		t.Errorf("foreach total = %d, want 6", got)
	}
	// Map iteration yields (key, value) tuples.
	src2 := `
CREATE QUERY IterateMap() {
  MapAccum<string, SumAccum<int>> @@m;
  SumAccum<int> @@vals;
  SumAccum<string> @@keys;
  S = SELECT t FROM V:s -(E>)- V:t
      ACCUM @@m += ("a" -> 1), @@m += ("b" -> 2);
  FOREACH kv IN @@m DO
    @@vals += size(kv);
  END;
  RETURN @@vals;
}
`
	res2, err := e.InstallAndRun(src2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Returned.Rows[0][0].Int(); got != 4 {
		t.Errorf("map foreach = %d, want 4 (two 2-tuples)", got)
	}
	// Iterating a scalar errors.
	if _, err := e.InstallAndRun(`
CREATE QUERY BadIter() {
  SumAccum<int> @@n;
  FOREACH x IN 5 DO
    @@n += 1;
  END;
}`, nil); err == nil {
		t.Error("FOREACH over a scalar must error")
	}
}

// TestGroupedTupleAggregate pins an aggregate inside a tuple item of a
// grouped SELECT: it folds like a bare one, compiled and on the oracle.
func TestGroupedTupleAggregate(t *testing.T) {
	e := salesEngine(t, Options{})
	if err := e.Install(`
CREATE QUERY Q() {
  SELECT p.category, (count(*), 1) AS n INTO T
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY p.category
  ORDER BY p.category;
}
`); err != nil {
		t.Fatal(err)
	}
	want := "[[grocery (101, 1)] [toy (99, 1)]]"
	for _, interp := range []bool{false, true} {
		res, err := maybeInterpreted(interp, func() (*Result, error) { return e.Run("Q", nil) })
		if err != nil {
			t.Fatalf("interp=%v: %v", interp, err)
		}
		if got := fmt.Sprint(res.Tables["T"].Rows); got != want {
			t.Errorf("interp=%v: rows %s, want %s", interp, got, want)
		}
	}
}

// TestGroupingSets exercises GROUP BY GROUPING SETS with the outer
// union and null-filled excluded keys (Example 12).
func TestGroupingSets(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY GS() {
  SELECT p.category, c.name, count(*) AS n INTO T
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY GROUPING SETS ((p.category), (c.name), ())
  ORDER BY n DESC;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables["T"]
	if tab == nil {
		t.Fatal("table T missing")
	}
	// Count rows per shape: (category, null), (null, name), (null, null).
	var byCat, byName, grand int
	var grandTotal int64
	for _, row := range tab.Rows {
		catNull, nameNull := row[0].IsNull(), row[1].IsNull()
		switch {
		case !catNull && nameNull:
			byCat++
		case catNull && !nameNull:
			byName++
		case catNull && nameNull:
			grand++
			grandTotal = row[2].Int()
		default:
			t.Errorf("unexpected grouping row %v", row)
		}
	}
	if byCat != 2 {
		t.Errorf("category groups = %d, want 2", byCat)
	}
	if byName == 0 {
		t.Error("no per-name groups")
	}
	if grand != 1 {
		t.Errorf("grand total rows = %d, want 1", grand)
	}
	// Grand total equals the number of Bought edges.
	g := e.Graph()
	var bought int64
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name == "Bought" {
			bought++
		}
	}
	if grandTotal != bought {
		t.Errorf("grand total = %d, want %d", grandTotal, bought)
	}
}

// TestCubeAndRollup checks the grouping-set expansions.
func TestCubeAndRollup(t *testing.T) {
	e := salesEngine(t, Options{})
	run := func(clause string) *Table {
		t.Helper()
		name := "Q" + map[byte]string{'C': "Cube", 'R': "Rollup"}[clause[0]]
		src := `
CREATE QUERY ` + name + `() {
  SELECT p.category, c.name, count(*) AS n INTO T
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY ` + clause + `;
}
`
		res, err := e.InstallAndRun(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tables["T"]
	}
	shapes := func(tab *Table) map[[2]bool]int {
		out := map[[2]bool]int{}
		for _, row := range tab.Rows {
			out[[2]bool{row[0].IsNull(), row[1].IsNull()}]++
		}
		return out
	}
	cube := shapes(run("CUBE (p.category, c.name)"))
	// CUBE: all four shapes present.
	for _, shape := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		if cube[shape] == 0 {
			t.Errorf("CUBE missing shape %v", shape)
		}
	}
	rollup := shapes(run("ROLLUP (p.category, c.name)"))
	// ROLLUP: (cat,name), (cat,null), (null,null) but never (null,name).
	if rollup[[2]bool{true, false}] != 0 {
		t.Error("ROLLUP must not contain (null, name) groups")
	}
	if rollup[[2]bool{false, false}] == 0 || rollup[[2]bool{false, true}] == 0 || rollup[[2]bool{true, true}] != 1 {
		t.Errorf("ROLLUP shapes wrong: %v", rollup)
	}
}

// TestBitwiseAccumulators exercises the BitwiseAnd/BitwiseOr types.
func TestBitwiseAccumulators(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	e := New(g, Options{})
	src := `
CREATE QUERY Bits() {
  BitwiseOrAccum @@or;
  BitwiseAndAccum @@and;
  S = SELECT t FROM V:s -(E>)- V:t
      ACCUM @@or += 5, @@or += 2, @@and += 7, @@and += 13;
  PRINT @@or, @@and;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Printed[0].Rows[0][0].Int(); got != 7 {
		t.Errorf("or = %d, want 7", got)
	}
	if got := res.Printed[1].Rows[0][0].Int(); got != 5 {
		t.Errorf("and = %d, want 5 (7 & 13)", got)
	}
}

// TestStringAndDatetimeBuiltins covers the scalar function library.
func TestStringAndDatetimeBuiltins(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	e := New(g, Options{})
	src := `
CREATE QUERY Fns() {
  PRINT upper("ab"), lower("AB"), trim("  x "), substr("hello", 1, 3),
        contains("hello", "ell"), starts_with("hello", "he"), ends_with("hello", "lo"),
        round(2.6), sign(-3), day_of_week(to_datetime("2020-06-14")),
        year(to_datetime("2020-06-14")), month(to_datetime("2020-06-14")),
        day(to_datetime("2020-06-14 13:00:00")), hour(to_datetime("2020-06-14 13:00:00")),
        length("abc"), pow(2, 10), log2(8.0), log10(100.0), exp(0.0), sqrt(9.0),
        ceil(1.2), floor(1.8), to_int(3.7), to_float(2), to_string(42),
        coalesce(null, 5), min(3, 1, 2), max(3, 1, 2),
        epoch_to_datetime(0), datetime_to_epoch(to_datetime("1970-01-01"));
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"AB", "ab", "x", "ell",
		"true", "true", "true",
		"3", "-1", "0", // 2020-06-14 is a Sunday
		"2020", "6", "14", "13",
		"3", "1024", "3", "2", "1", "3",
		"2", "1", "3", "2", "42",
		"5", "1", "3",
		"1970-01-01 00:00:00", "0",
	}
	for i, w := range want {
		if got := res.Printed[i].Rows[0][0].String(); got != w {
			t.Errorf("builtin %d: got %q, want %q", i, got, w)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	e := New(g, Options{})
	bad := []string{
		`PRINT log("x");`,
		`PRINT substr(1, 2, 3);`,
		`PRINT substr("x", -1, 2);`,
		`PRINT upper(5);`,
		`PRINT contains("a", 1);`,
		`PRINT year(5);`,
		`PRINT to_datetime(5);`,
		`PRINT min(1);`,
		`PRINT size(5);`,
		`PRINT pow("a", 2);`,
		`PRINT 1 IN 5;`,
		`PRINT count(*);`,
	}
	for i, stmt := range bad {
		src := "CREATE QUERY E" + itoa(i) + "() { " + stmt + " }"
		if err := e.Install(src); err != nil {
			t.Fatalf("install %q: %v", stmt, err)
		}
		if _, err := e.Run("E"+itoa(i), nil); err == nil {
			t.Errorf("%q must error at run time", stmt)
		}
	}
	// Unknown functions are caught statically at install.
	if err := e.Install(`CREATE QUERY EFn() { PRINT nosuchfn(1); }`); err == nil {
		t.Error("unknown function must fail at install")
	}
}

// TestExplain checks the plan rendering mentions the load-bearing
// decisions.
func TestExplain(t *testing.T) {
	g := graph.BuildDiamondChain(3)
	e := New(g, Options{})
	if err := e.Install(qnSrc); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain("Qn")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"QUERY Qn",
		"all-shortest-paths",
		"polynomial path counting",
		"DFA",
		"ACCUM 1 statement(s)",
		"@pathCount",
		"PRINT",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if _, err := e.Explain("NoSuch"); err == nil {
		t.Error("Explain of unknown query must error")
	}
	// NRE override shows enumeration.
	if err := e.Install(`
CREATE QUERY QEnum(string a, string b) SEMANTICS nre {
  SumAccum<int> @n;
  R = SELECT t FROM V:s -(E>*)- V:t WHERE s.name == a AND t.name == b ACCUM t.@n += 1;
}`); err != nil {
		t.Fatal(err)
	}
	plan, err = e.Explain("QEnum")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "enumeration") || !strings.Contains(plan, "per-query override") {
		t.Errorf("NRE plan wrong:\n%s", plan)
	}
}

// TestSemanticsOverrideMatchesEngineOption cross-checks that the
// per-query annotation and the engine-level option agree.
func TestSemanticsOverrideMatchesEngineOption(t *testing.T) {
	g := graph.BuildG1()
	args := map[string]value.Value{
		"srcName": value.NewString("1"),
		"tgtName": value.NewString("5"),
	}
	// Engine-level NRE.
	e1 := New(g, Options{Semantics: match.NonRepeatedEdge})
	if err := e1.Install(qnSrc); err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Run("Qn", args)
	if err != nil {
		t.Fatal(err)
	}
	// Query-level NRE on an ASP engine.
	e2 := New(g, Options{})
	if err := e2.Install(strings.Replace(qnSrc, "CREATE QUERY Qn(string srcName, string tgtName) {",
		"CREATE QUERY Qn(string srcName, string tgtName) SEMANTICS nre {", 1)); err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run("Qn", args)
	if err != nil {
		t.Fatal(err)
	}
	a := r1.Printed[0].Rows[0][1].Int()
	b := r2.Printed[0].Rows[0][1].Int()
	if a != b || a != 4 {
		t.Errorf("engine-level %d vs query-level %d, want 4", a, b)
	}
}
