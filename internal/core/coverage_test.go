package core

import (
	"strings"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/value"
)

// These tests exercise the engine surfaces the figure-level tests do
// not reach: PRINT variants, RETURN forms, vertex-set algebra and
// ordering, method calls, membership, and diagnostic paths.

func TestVertexSetOps(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY SetAlgebra() {
  Buyers = SELECT c FROM Customer:c -(Bought>)- Product:p;
  Likers = SELECT c FROM Customer:c -(Likes>)- Product:p;
  Both = Buyers INTERSECT Likers;
  Either = Buyers UNION Likers;
  OnlyBuy = Buyers MINUS Likers;
  All = {Customer.*};
  Rest = All MINUS Either;
  PRINT Both.size(), Either.size(), OnlyBuy.size(), Rest.size();
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle.
	g := e.Graph()
	buyers := map[graph.VID]bool{}
	likers := map[graph.VID]bool{}
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		s, _ := g.EdgeEndpoints(eid)
		switch g.EdgeTypeOf(eid).Name {
		case "Bought":
			buyers[s] = true
		case "Likes":
			likers[s] = true
		}
	}
	var both, either, onlyBuy int64
	for v := range buyers {
		if likers[v] {
			both++
		} else {
			onlyBuy++
		}
		either++
	}
	for v := range likers {
		if !buyers[v] {
			either++
		}
	}
	rest := int64(len(g.VerticesOfType("Customer"))) - either
	want := []int64{both, either, onlyBuy, rest}
	for i, w := range want {
		if got := res.Printed[i].Rows[0][0].Int(); got != w {
			t.Errorf("set op %d: got %d, want %d", i, got, w)
		}
	}
	// Error paths.
	if _, err := e.InstallAndRun(`CREATE QUERY BadSet() { S = Nope UNION Customer; }`, nil); err == nil {
		t.Error("unknown set operand must error")
	}
}

func TestVertexSetAssignmentOrderLimit(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY TopSpenders(int k) {
  SumAccum<float> @spent;
  S = SELECT c
      FROM Customer:c -(Bought>:e)- Product:p
      ACCUM c.@spent += e.quantity * p.listPrice
      ORDER BY c.@spent DESC
      LIMIT k;
  PRINT S[S.name, S.@spent];
}
`
	res, err := e.InstallAndRun(src, map[string]value.Value{"k": value.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Printed[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("LIMIT k on vertex-set assignment: %d rows", len(tab.Rows))
	}
	prev := tab.Rows[0][1].Float()
	for _, row := range tab.Rows[1:] {
		if row[1].Float() > prev {
			t.Error("ORDER BY DESC violated on vertex set")
		}
		prev = row[1].Float()
	}
}

func TestPrintVariants(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY Prints() {
  SumAccum<int> @@n;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p ACCUM @@n += 1;
  SELECT p.name INTO Tbl FROM Customer:c -(Bought>)- Product:p;
  PRINT S;
  PRINT Tbl;
  PRINT @@n, 1 + 2, "hi";
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Printed) != 5 {
		t.Fatalf("printed %d tables, want 5", len(res.Printed))
	}
	if res.Printed[0].Name != "S" || len(res.Printed[0].Rows) == 0 {
		t.Error("PRINT of a vertex set wrong")
	}
	if res.Printed[1].Name != "Tbl" {
		t.Error("PRINT of a table wrong")
	}
	if res.Printed[3].Rows[0][0].Int() != 3 {
		t.Error("PRINT of an expression wrong")
	}
	if res.Printed[4].Rows[0][0].Str() != "hi" {
		t.Error("PRINT of a literal wrong")
	}
	// PRINT projection over a non-set errors.
	if _, err := e.InstallAndRun(`CREATE QUERY BadPrint() { PRINT Zed[Zed.name]; }`, nil); err == nil {
		t.Error("projection over unknown set must error")
	}
}

func TestReturnForms(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	e := New(g, Options{})
	// Scalar return.
	res, err := e.InstallAndRun(`CREATE QUERY R1() { RETURN 6 * 7; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Returned.Rows[0][0].Int() != 42 {
		t.Error("scalar RETURN wrong")
	}
	// Vertex-set return.
	res, err = e.InstallAndRun(`
CREATE QUERY R2() {
  S = SELECT t FROM V:s -(E>)- V:t;
  RETURN S;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Returned.Rows) == 0 {
		t.Error("vertex-set RETURN empty")
	}
	// RETURN short-circuits later statements.
	res, err = e.InstallAndRun(`
CREATE QUERY R3() {
  SumAccum<int> @@n;
  WHILE true LIMIT 10 DO
    @@n += 1;
    IF @@n == 3 THEN
      RETURN @@n;
    END;
  END;
  RETURN 0;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Returned.Rows[0][0].Int() != 3 {
		t.Errorf("early RETURN: %v", res.Returned.Rows[0][0])
	}
}

func TestVertexMethods(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY Methods() {
  SELECT c.id() AS key, c.type() AS typ, c.vid() AS vid,
         c.outdegree() AS deg, c.outdegree("Bought") AS bought, c.degree() AS total INTO M
  FROM Customer:c
  ORDER BY c.id()
  LIMIT 1;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Tables["M"].Rows[0]
	g := e.Graph()
	v, _ := g.VertexByKey("Customer", row[0].Str())
	if row[1].Str() != "Customer" {
		t.Errorf("type() = %v", row[1])
	}
	if row[2].Int() != int64(v) {
		t.Errorf("vid() = %v, want %d", row[2], v)
	}
	bought := 0
	for _, h := range g.Neighbors(v) {
		if h.Type == int16(g.Schema.EdgeType("Bought").ID) && h.Dir != graph.DirIn {
			bought++
		}
	}
	if row[3].Int() != int64(g.OutDegree(v)) || row[4].Int() != int64(bought) || row[5].Int() != int64(g.Degree(v)) {
		t.Errorf("degrees wrong: %v", row)
	}
	// Method errors: unknown method names fail static validation at
	// install; bad arities fail at run time.
	if err := e.Install(`CREATE QUERY MEBad() { SELECT c.nosuch() AS x INTO T FROM Customer:c; }`); err == nil {
		t.Error("unknown method must fail at install")
	}
	for i, stmt := range []string{
		`SELECT c.outdegree(1) AS x INTO T FROM Customer:c;`,
		`SELECT c.outdegree("a", "b") AS x INTO T FROM Customer:c;`,
	} {
		src := "CREATE QUERY ME" + itoa(i) + "() { " + stmt + " }"
		if err := e.Install(src); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run("ME"+itoa(i), nil); err == nil {
			t.Errorf("%q must error", stmt)
		}
	}
}

func TestWhereErrorsAndEdgeAttrs(t *testing.T) {
	e := salesEngine(t, Options{})
	// Edge attribute in WHERE and output.
	src := `
CREATE QUERY BigOrders() {
  SELECT c.name, e.quantity INTO T
  FROM Customer:c -(Bought>:e)- Product:p
  WHERE e.quantity >= 4;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables["T"].Rows {
		if row[1].Int() < 4 {
			t.Errorf("WHERE on edge attr leaked %v", row)
		}
	}
	if len(res.Tables["T"].Rows) == 0 {
		t.Error("no big orders found; enlarge the generator")
	}
	// Unknown attribute diagnoses.
	cases := []string{
		`S = SELECT c FROM Customer:c WHERE c.zipcode == 1;`,
		`S = SELECT c FROM Customer:c -(Bought>:e)- Product:p WHERE e.zip == 1;`,
		`S = SELECT c FROM Customer:c WHERE c.name.foo == 1;`,
	}
	for i, stmt := range cases {
		src := "CREATE QUERY WE" + itoa(i) + "() { " + stmt + " }"
		if err := e.Install(src); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run("WE"+itoa(i), nil); err == nil {
			t.Errorf("%q must error", stmt)
		}
	}
}

func TestFromErrors(t *testing.T) {
	e := salesEngine(t, Options{})
	// Unknown endpoints and edge types now fail static validation at
	// install time.
	installErr := []struct {
		stmt, want string
	}{
		{`S = SELECT x FROM Nowhere:x;`, "not a vertex type"},
		{`S = SELECT x FROM Customer:c -(Bought>)- Nowhere:x;`, "not a vertex type"},
		{`S = SELECT x FROM Customer:c -(NoSuchEdge>)- Product:x;`, "unknown edge type"},
	}
	for i, c := range installErr {
		src := "CREATE QUERY FE" + itoa(i) + "() { " + c.stmt + " }"
		err := e.Install(src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: install error %v must mention %q", c.stmt, err, c.want)
		}
	}
	// Shared edge aliases across conjuncts surface at run time.
	src := `CREATE QUERY FEDup() { S = SELECT v FROM Customer:c -(Bought>:e)- Product:p, Customer:v -(Likes>:e)- Product:p; }`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("FEDup", nil); err == nil || !strings.Contains(err.Error(), "edge alias") {
		t.Errorf("duplicate edge alias: %v", err)
	}
}

func TestMembershipOperatorForms(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	e := New(g, Options{})
	src := `
CREATE QUERY Member() {
  ListAccum<int> @@l;
  MapAccum<string, SumAccum<int>> @@m;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM @@l += 1, @@m += ("k" -> 1);
  PRINT 1 IN @@l, 2 IN @@l, "k" IN @@m, "z" IN @@m, 1 IN (1, 2, 3);
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false, true}
	for i, w := range want {
		if got := res.Printed[i].Rows[0][0].Bool(); got != w {
			t.Errorf("membership %d: got %v, want %v", i, got, w)
		}
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	// Aggregates without GROUP BY form a single implicit group.
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY Totals() {
  SELECT count(*) AS n, sum(e.quantity) AS qty INTO T
  FROM Customer:c -(Bought>:e)- Product:p
  HAVING count(*) > 0;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables["T"]
	if len(tab.Rows) != 1 {
		t.Fatalf("implicit group rows = %d", len(tab.Rows))
	}
	g := e.Graph()
	var n, qty int64
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name == "Bought" {
			n++
			q, _ := g.EdgeAttr(eid, "quantity")
			qty += q.Int()
		}
	}
	if tab.Rows[0][0].Int() != n || tab.Rows[0][1].Float() != float64(qty) {
		t.Errorf("totals = %v, want (%d, %d)", tab.Rows[0], n, qty)
	}
}

func TestDistinctProjection(t *testing.T) {
	// DISTINCT dedupes by projected values, beyond alias combos.
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY Cats() {
  SELECT DISTINCT p.category INTO T
  FROM Customer:c -(Bought>)- Product:p;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["T"].Rows) != 2 {
		t.Errorf("distinct categories = %d, want 2", len(res.Tables["T"].Rows))
	}
}

func TestParamCoercion(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	e := New(g, Options{})
	if err := e.Install(`CREATE QUERY P(float f, datetime d) { RETURN f; }`); err != nil {
		t.Fatal(err)
	}
	// Ints coerce into float and datetime parameters.
	res, err := e.Run("P", map[string]value.Value{
		"f": value.NewInt(3), "d": value.NewInt(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Returned.Rows[0][0].Float() != 3 {
		t.Error("int->float coercion failed")
	}
	if _, err := e.Run("P", map[string]value.Value{
		"f": value.NewString("x"), "d": value.NewInt(1),
	}); err == nil {
		t.Error("string->float must be rejected")
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{Cols: []string{"a", "b"}, Rows: [][]value.Value{
		{value.NewInt(1), value.NewString("x")},
	}}
	s := tab.String()
	if !strings.Contains(s, "a\tb") || !strings.Contains(s, "1\tx") {
		t.Errorf("Table.String: %q", s)
	}
}

func TestQueriesList(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	e := New(g, Options{})
	if err := e.Install(`CREATE QUERY B() {} CREATE QUERY A() {}`); err != nil {
		t.Fatal(err)
	}
	if got := e.Queries(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Queries() = %v, want sorted [A B]", got)
	}
	if _, err := e.InstallAndRun(`CREATE QUERY C() {} CREATE QUERY D() {}`, nil); err == nil {
		t.Error("InstallAndRun with two queries must error")
	}
	if _, err := e.InstallAndRun(`CREATE BOGUS`, nil); err == nil {
		t.Error("InstallAndRun with a parse error must error")
	}
}

// TestParallelDeterminism runs an order-invariant multi-accumulator
// query with different worker counts and requires identical results.
func TestParallelDeterminism(t *testing.T) {
	g := graph.BuildSalesGraph(graph.SalesGraphConfig{
		Customers: 100, Products: 40, Sales: 5000, Likes: 100, Seed: 3,
	})
	src := `
CREATE QUERY Det() {
  SumAccum<float> @@sum;
  MaxAccum<float> @@max;
  AvgAccum<float> @@avg;
  SetAccum<string> @@cats;
  S = SELECT c
      FROM Customer:c -(Bought>:e)- Product:p
      ACCUM float sp = e.quantity * p.listPrice,
            @@sum += sp, @@max += sp, @@avg += sp, @@cats += p.category;
  PRINT @@sum, @@max, @@avg, @@cats;
}
`
	var first []value.Value
	for _, workers := range []int{1, 2, 8} {
		e := New(g, Options{Workers: workers})
		res, err := e.InstallAndRun(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []value.Value
		for _, p := range res.Printed {
			got = append(got, p.Rows[0][0])
		}
		if first == nil {
			first = got
			continue
		}
		// Float sums vary in the last bits with the partitioning
		// (float addition is not associative); everything else must be
		// bit-identical.
		for i := range got {
			if got[i].Kind() == value.KindFloat {
				if !approxEq(got[i].Float(), first[i].Float()) {
					t.Errorf("workers=%d: output %d = %v differs from %v", workers, i, got[i], first[i])
				}
				continue
			}
			if !value.Equal(got[i], first[i]) {
				t.Errorf("workers=%d: output %d = %v differs from %v", workers, i, got[i], first[i])
			}
		}
	}
}

func TestGroupedOrderByAliasAndLimit(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY TopCats(int k) {
  SELECT p.category, count(*) AS n INTO T
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY p.category
  ORDER BY n DESC
  LIMIT k;
}
`
	res, err := e.InstallAndRun(src, map[string]value.Value{"k": value.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables["T"].Rows) != 1 {
		t.Fatalf("LIMIT on grouped output: %d rows", len(res.Tables["T"].Rows))
	}
}
