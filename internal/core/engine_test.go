package core

import (
	"math"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

// figure2 is the single-pass three-way aggregation of Example 4
// (Figure 2): revenue per toy, revenue per customer and total revenue
// computed in one traversal.
const figure2Src = `
CREATE QUERY RevenuePerToyAndCustomer() FOR GRAPH SalesGraph {
  SumAccum<float> @@totalRevenue;
  SumAccum<float> @revenuePerToy;
  SumAccum<float> @revenuePerCust;

  S = SELECT c
      FROM Customer:c -(Bought>:e)- Product:p
      WHERE p.category == "toy"
      ACCUM float salesPrice = e.quantity * p.listPrice * (1.0 - e.discount),
            c.@revenuePerCust += salesPrice,
            p.@revenuePerToy += salesPrice,
            @@totalRevenue += salesPrice;

  SELECT c.name, c.@revenuePerCust AS revenue INTO PerCust
  FROM Customer:c -(Bought>)- Product:p
  WHERE p.category == "toy";

  SELECT p.name, p.@revenuePerToy AS revenue INTO PerToy
  FROM Customer:c -(Bought>)- Product:p
  WHERE p.category == "toy";
}
`

func salesEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	g := graph.BuildSalesGraph(graph.SalesGraphConfig{
		Customers: 25, Products: 12, Sales: 200, Likes: 150, Seed: 42,
	})
	return New(g, opts)
}

// salesOracle computes Figure 2's three aggregations natively.
func salesOracle(g *graph.Graph) (perCust, perToy map[string]float64, total float64) {
	perCust = map[string]float64{}
	perToy = map[string]float64{}
	for e := graph.EID(0); int(e) < g.NumEdges(); e++ {
		if g.EdgeTypeOf(e).Name != "Bought" {
			continue
		}
		c, p := g.EdgeEndpoints(e)
		cat, _ := g.VertexAttr(p, "category")
		if cat.Str() != "toy" {
			continue
		}
		qty, _ := g.EdgeAttr(e, "quantity")
		disc, _ := g.EdgeAttr(e, "discount")
		price, _ := g.VertexAttr(p, "listPrice")
		sp := float64(qty.Int()) * price.Float() * (1 - disc.Float())
		cname, _ := g.VertexAttr(c, "name")
		pname, _ := g.VertexAttr(p, "name")
		perCust[cname.Str()] += sp
		perToy[pname.Str()] += sp
		total += sp
	}
	return perCust, perToy, total
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestFigure2MultiAggregation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := salesEngine(t, Options{Workers: workers})
		res, err := e.InstallAndRun(figure2Src, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		perCust, perToy, total := salesOracle(e.Graph())
		gv, _ := res.Global("totalRevenue")
		if got := gv.Float(); !approxEq(got, total) {
			t.Errorf("workers=%d: total = %v, want %v", workers, got, total)
		}
		checkTable := func(name string, oracle map[string]float64) {
			tab := res.Tables[name]
			if tab == nil {
				t.Fatalf("table %s missing", name)
			}
			if len(tab.Rows) != len(oracle) {
				t.Errorf("%s rows = %d, want %d", name, len(tab.Rows), len(oracle))
			}
			for _, row := range tab.Rows {
				if !approxEq(row[1].Float(), oracle[row[0].Str()]) {
					t.Errorf("%s[%s] = %v, want %v", name, row[0], row[1], oracle[row[0].Str()])
				}
			}
		}
		checkTable("PerCust", perCust)
		checkTable("PerToy", perToy)
	}
}

// TestExample5MultiOutput runs the genuine multi-output SELECT form.
func TestExample5MultiOutput(t *testing.T) {
	src := `
CREATE QUERY RevenueTables() FOR GRAPH SalesGraph {
  SumAccum<float> @@totalRevenue;
  SumAccum<float> @revenuePerToy;
  SumAccum<float> @revenuePerCust;

  SELECT c.name, c.@revenuePerCust INTO PerCust;
         p.name, p.@revenuePerToy INTO PerToy;
         @@totalRevenue AS rev INTO Total
  FROM   Customer:c -(Bought>:e)- Product:p
  WHERE  p.category == "toy"
  ACCUM  float salesPrice = e.quantity * p.listPrice * (1.0 - e.discount),
         c.@revenuePerCust += salesPrice,
         p.@revenuePerToy += salesPrice,
         @@totalRevenue += salesPrice;
}
`
	e := salesEngine(t, Options{})
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	perCust, perToy, total := salesOracle(e.Graph())
	if got := res.Tables["Total"]; got == nil || len(got.Rows) != 1 || !approxEq(got.Rows[0][0].Float(), total) {
		t.Errorf("Total table: %v, want %v", got, total)
	}
	if got := res.Tables["PerCust"]; got == nil || len(got.Rows) != len(perCust) {
		t.Errorf("PerCust rows wrong")
	}
	if got := res.Tables["PerToy"]; got == nil || len(got.Rows) != len(perToy) {
		t.Errorf("PerToy rows wrong")
	}
	// NOTE: the tables carry post-reduce accumulator values — each
	// customer row holds its full revenue, matching the oracle.
	for _, row := range res.Tables["PerCust"].Rows {
		if !approxEq(row[1].Float(), perCust[row[0].Str()]) {
			t.Errorf("PerCust[%s] = %v, want %v", row[0], row[1], perCust[row[0].Str()])
		}
	}
}

// figure3Src is the two-pass recommender of Example 6 (Figure 3).
const figure3Src = `
CREATE QUERY TopKToys (vertex<Customer> c, int k) FOR GRAPH SalesGraph {
  SumAccum<float> @lc, @inCommon, @rank;

  SELECT DISTINCT o INTO OthersWithCommonLikes
  FROM   Customer:c -(Likes>)- Product:t -(<Likes)- Customer:o
  WHERE  o <> c AND t.category == 'toy'
  ACCUM  o.@inCommon += 1
  POST_ACCUM o.@lc = log(1 + o.@inCommon);

  SELECT t.name, t.@rank AS rank INTO Recommended
  FROM   OthersWithCommonLikes:o -(Likes>)- Product:t
  WHERE  t.category == 'toy' AND c <> o
  ACCUM  t.@rank += o.@lc
  ORDER BY t.@rank DESC
  LIMIT k;

  RETURN Recommended;
}
`

// recommendOracle natively reproduces Figure 3's log-cosine ranking.
func recommendOracle(g *graph.Graph, c graph.VID, k int) map[string]float64 {
	likes := func(v graph.VID) map[graph.VID]bool {
		out := map[graph.VID]bool{}
		for _, h := range g.Neighbors(v) {
			if g.EdgeTypeOf(h.Edge).Name == "Likes" && h.Dir == graph.DirOut {
				cat, _ := g.VertexAttr(h.To, "category")
				if cat.Str() == "toy" {
					out[h.To] = true
				}
			}
		}
		return out
	}
	cLikes := likes(c)
	lc := map[graph.VID]float64{}
	for _, o := range g.VerticesOfType("Customer") {
		if o == c {
			continue
		}
		common := 0
		for p := range likes(o) {
			if cLikes[p] {
				common++
			}
		}
		if common > 0 {
			lc[o] = math.Log(1 + float64(common))
		}
	}
	rank := map[string]float64{}
	for o, w := range lc {
		for p := range likes(o) {
			name, _ := g.VertexAttr(p, "name")
			rank[name.Str()] += w
		}
	}
	return rank
}

func TestFigure3Recommender(t *testing.T) {
	e := salesEngine(t, Options{})
	g := e.Graph()
	if err := e.Install(figure3Src); err != nil {
		t.Fatal(err)
	}
	c, ok := g.VertexByKey("Customer", "c0")
	if !ok {
		t.Fatal("customer c0 missing")
	}
	k := 5
	res, err := e.Run("TopKToys", map[string]value.Value{
		"c": value.NewVertex(int64(c)), "k": value.NewInt(int64(k)),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := recommendOracle(g, c, k)
	tab := res.Returned
	if tab == nil {
		t.Fatal("RETURN table missing")
	}
	if len(tab.Rows) > k {
		t.Errorf("LIMIT k violated: %d rows", len(tab.Rows))
	}
	prev := math.Inf(1)
	for _, row := range tab.Rows {
		name, rank := row[0].Str(), row[1].Float()
		if !approxEq(rank, oracle[name]) {
			t.Errorf("rank[%s] = %v, want %v", name, rank, oracle[name])
		}
		if rank > prev {
			t.Error("ORDER BY DESC violated")
		}
		prev = rank
	}
	if len(tab.Rows) == 0 {
		t.Error("no recommendations produced; check the generator config")
	}
}

// figure4Src is the PageRank of Example 7 (Figure 4), initialized like
// TigerGraph's published PageRank (the loop guard needs a non-default
// @@maxDifference to admit the first iteration).
const figure4Src = `
CREATE QUERY PageRank (float maxChange, int maxIteration, float dampingFactor) {
  MaxAccum<float> @@maxDifference = 9999;
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;

  AllV = {Page.*};
  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
     @@maxDifference = 0;
     S = SELECT v
         FROM       AllV:v -(LinkTo>)- Page:n
         ACCUM      n.@received_score += v.@score/v.outdegree()
         POST-ACCUM v.@score = 1-dampingFactor + dampingFactor * v.@received_score,
                    v.@received_score = 0,
                    @@maxDifference += abs(v.@score - v.@score');
  END;
  PRINT @@maxDifference;
}
`

// pageRankOracle mirrors Figure 4's semantics natively: synchronous
// updates; only vertices with outgoing links are rescored (they are
// the distinct v bindings).
func pageRankOracle(g *graph.Graph, maxChange float64, maxIter int, damping float64) []float64 {
	n := g.NumVertices()
	score := make([]float64, n)
	for i := range score {
		score[i] = 1
	}
	received := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		maxDiff := 0.0
		for i := range received {
			received[i] = 0
		}
		for v := 0; v < n; v++ {
			out := g.OutDegree(graph.VID(v))
			if out == 0 {
				continue
			}
			share := score[v] / float64(out)
			for _, h := range g.Neighbors(graph.VID(v)) {
				if h.Dir == graph.DirOut {
					received[h.To] += share
				}
			}
		}
		for v := 0; v < n; v++ {
			if g.OutDegree(graph.VID(v)) == 0 {
				continue
			}
			old := score[v]
			score[v] = 1 - damping + damping*received[v]
			if d := math.Abs(score[v] - old); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff <= maxChange {
			break
		}
	}
	return score
}

func TestFigure4PageRank(t *testing.T) {
	g := graph.BuildLinkGraph(60, 5, 7)
	for _, workers := range []int{1, 4} {
		e := New(g, Options{Workers: workers})
		if err := e.Install(figure4Src); err != nil {
			t.Fatal(err)
		}
		_, err := e.Run("PageRank", map[string]value.Value{
			"maxChange":     value.NewFloat(0.001),
			"maxIteration":  value.NewInt(25),
			"dampingFactor": value.NewFloat(0.85),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Inspect vertex accumulator state via a follow-up query.
		if err := e.Install(`
CREATE QUERY ReadScores() {
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;
  AllV = {Page.*};
  S = SELECT v FROM AllV:v -(LinkTo>)- Page:n;
}`); err != nil {
			t.Fatal(err)
		}
		// Accumulators are per-run; read scores through PRINT instead.
		break
	}
	// Validate scores via a PRINT-enabled variant.
	e := New(g, Options{})
	src := `
CREATE QUERY PageRankPrint (float maxChange, int maxIteration, float dampingFactor) {
  MaxAccum<float> @@maxDifference = 9999;
  SumAccum<float> @received_score;
  SumAccum<float> @score = 1;

  AllV = {Page.*};
  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
     @@maxDifference = 0;
     S = SELECT v
         FROM       AllV:v -(LinkTo>)- Page:n
         ACCUM      n.@received_score += v.@score/v.outdegree()
         POST-ACCUM v.@score = 1-dampingFactor + dampingFactor * v.@received_score,
                    v.@received_score = 0,
                    @@maxDifference += abs(v.@score - v.@score');
  END;
  Pages = {Page.*};
  PRINT Pages[Pages.name, Pages.@score];
}
`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run("PageRankPrint", map[string]value.Value{
		"maxChange":     value.NewFloat(0.001),
		"maxIteration":  value.NewInt(25),
		"dampingFactor": value.NewFloat(0.85),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := pageRankOracle(g, 0.001, 25, 0.85)
	var scoreTable *Table
	for _, p := range res.Printed {
		if p.Name == "Pages" {
			scoreTable = p
		}
	}
	if scoreTable == nil {
		t.Fatal("score table missing")
	}
	if len(scoreTable.Rows) != g.NumVertices() {
		t.Fatalf("score rows = %d", len(scoreTable.Rows))
	}
	for _, row := range scoreTable.Rows {
		v, _ := g.VertexByKey("Page", row[0].Str())
		if math.Abs(row[1].Float()-oracle[v]) > 1e-6 {
			t.Errorf("score[%s] = %v, oracle %v", row[0], row[1], oracle[v])
		}
	}
}

// qnSrc is the Section 7.1 path-counting query.
const qnSrc = `
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;

  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;

  PRINT R[R.name, R.@pathCount];
}
`

func TestQnDiamondChainCounting(t *testing.T) {
	g := graph.BuildDiamondChain(16)
	e := New(g, Options{})
	if err := e.Install(qnSrc); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 12, 16} {
		res, err := e.Run("Qn", map[string]value.Value{
			"srcName": value.NewString("v0"),
			"tgtName": value.NewString("v" + itoa(n)),
		})
		if err != nil {
			t.Fatal(err)
		}
		tab := res.Printed[0]
		if len(tab.Rows) != 1 {
			t.Fatalf("Qn rows = %d", len(tab.Rows))
		}
		want := int64(1) << uint(n)
		if got := tab.Rows[0][1].Int(); got != want {
			t.Errorf("path count to v%d = %d, want %d (2^%d)", n, got, want, n)
		}
	}
}

func itoa(n int) string {
	digits := []byte{}
	if n == 0 {
		return "0"
	}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestSemanticsFlavorsOnG1 reruns Example 9 through the full engine:
// the same GSQL query returns multiplicity 2, 4 and 3 under ASP, NRE
// and NRV semantics.
func TestSemanticsFlavorsOnG1(t *testing.T) {
	g := graph.BuildG1()
	for _, tc := range []struct {
		sem  match.Semantics
		want int64
	}{
		{match.AllShortestPaths, 2},
		{match.NonRepeatedEdge, 4},
		{match.NonRepeatedVertex, 3},
		{match.ShortestExists, 1},
	} {
		e := New(g, Options{Semantics: tc.sem})
		if err := e.Install(qnSrc); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run("Qn", map[string]value.Value{
			"srcName": value.NewString("1"),
			"tgtName": value.NewString("5"),
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.sem, err)
		}
		if got := res.Printed[0].Rows[0][1].Int(); got != tc.want {
			t.Errorf("%v: count = %d, want %d", tc.sem, got, tc.want)
		}
	}
}

// TestMultiplicityShortcutAblation verifies Appendix A: disabling the
// compressed-binding shortcut must not change any result, only cost.
func TestMultiplicityShortcutAblation(t *testing.T) {
	g := graph.BuildDiamondChain(10)
	for _, noShortcut := range []bool{false, true} {
		e := New(g, Options{NoMultiplicityShortcut: noShortcut})
		if err := e.Install(qnSrc); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run("Qn", map[string]value.Value{
			"srcName": value.NewString("v0"),
			"tgtName": value.NewString("v10"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Printed[0].Rows[0][1].Int(); got != 1024 {
			t.Errorf("noShortcut=%v: count = %d, want 1024", noShortcut, got)
		}
	}
}

func TestGroupByHavingOrderLimit(t *testing.T) {
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY SalesByCategory() {
  SELECT p.category, count(*) AS n, sum(e.quantity) AS qty, avg(p.listPrice) AS avgPrice INTO ByCat
  FROM Customer:c -(Bought>:e)- Product:p
  GROUP BY p.category
  HAVING count(*) > 0
  ORDER BY p.category ASC;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables["ByCat"]
	if tab == nil || len(tab.Rows) != 2 {
		t.Fatalf("ByCat: %+v", tab)
	}
	// Oracle.
	g := e.Graph()
	count := map[string]int64{}
	qty := map[string]int64{}
	priceSum := map[string]float64{}
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name != "Bought" {
			continue
		}
		_, p := g.EdgeEndpoints(eid)
		cat, _ := g.VertexAttr(p, "category")
		q, _ := g.EdgeAttr(eid, "quantity")
		price, _ := g.VertexAttr(p, "listPrice")
		count[cat.Str()]++
		qty[cat.Str()] += q.Int()
		priceSum[cat.Str()] += price.Float()
	}
	for _, row := range tab.Rows {
		cat := row[0].Str()
		if row[1].Int() != count[cat] {
			t.Errorf("count[%s] = %v, want %d", cat, row[1], count[cat])
		}
		if row[2].Float() != float64(qty[cat]) {
			t.Errorf("qty[%s] = %v, want %d", cat, row[2], qty[cat])
		}
		if !approxEq(row[3].Float(), priceSum[cat]/float64(count[cat])) {
			t.Errorf("avgPrice[%s] = %v", cat, row[3])
		}
	}
	if tab.Rows[0][0].Str() >= tab.Rows[1][0].Str() {
		t.Error("ORDER BY category ASC violated")
	}
}

func TestIfElseAndScalarLocals(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	e := New(g, Options{})
	src := `
CREATE QUERY Branchy(int x) {
  SumAccum<int> @@n;
  y = x * 2;
  IF y > 10 THEN
    @@n += 1;
  ELSE
    IF y == 6 THEN
      @@n += 2;
    END;
  END;
  RETURN @@n;
}
`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	run := func(x int64) int64 {
		res, err := e.Run("Branchy", map[string]value.Value{"x": value.NewInt(x)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Returned.Rows[0][0].Int()
	}
	if run(6) != 1 {
		t.Error("then branch wrong")
	}
	if run(3) != 2 {
		t.Error("nested else branch wrong")
	}
	if run(1) != 0 {
		t.Error("fallthrough wrong")
	}
}

func TestConjunctJoin(t *testing.T) {
	// Two path conjuncts sharing an alias: customers who bought AND
	// like the same product.
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY BoughtAndLikes() {
  SumAccum<int> @@pairs;
  S = SELECT c
      FROM Customer:c -(Bought>)- Product:p, Customer:c -(Likes>)- Product:p
      ACCUM @@pairs += 1;
  RETURN @@pairs;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: for each (c, p) count bought-edges × likes-edges.
	g := e.Graph()
	bought := map[[2]graph.VID]int64{}
	likes := map[[2]graph.VID]int64{}
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		s, d := g.EdgeEndpoints(eid)
		switch g.EdgeTypeOf(eid).Name {
		case "Bought":
			bought[[2]graph.VID{s, d}]++
		case "Likes":
			likes[[2]graph.VID{s, d}]++
		}
	}
	var want int64
	for k, nb := range bought {
		want += nb * likes[k]
	}
	if got := res.Returned.Rows[0][0].Int(); got != want {
		t.Errorf("pairs = %d, want %d", got, want)
	}
	if want == 0 {
		t.Error("oracle found no overlap; enlarge the generator")
	}
}

func TestRepeatedAliasClosesCycle(t *testing.T) {
	// Pattern c -(Likes>)- p -(<Likes)- c reuses alias c: only
	// round-trips to the same customer match.
	e := salesEngine(t, Options{})
	src := `
CREATE QUERY SelfLoop() {
  SumAccum<int> @@n;
  S = SELECT c
      FROM Customer:c -(Likes>)- Product:p -(<Likes)- Customer:c
      ACCUM @@n += 1;
  RETURN @@n;
}
`
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := e.Graph()
	var want int64
	for eid := graph.EID(0); int(eid) < g.NumEdges(); eid++ {
		if g.EdgeTypeOf(eid).Name == "Likes" {
			want++ // each like edge loops back through itself exactly once
		}
	}
	if got := res.Returned.Rows[0][0].Int(); got != want {
		t.Errorf("self loops = %d, want %d", got, want)
	}
}

func TestRunErrors(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	e := New(g, Options{})
	if _, err := e.Run("NoSuch", nil); err == nil {
		t.Error("running an unknown query must error")
	}
	if err := e.Install(`CREATE QUERY P(int x) { SumAccum<int> @@n; @@n += x; }`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("P", nil); err == nil {
		t.Error("missing argument must error")
	}
	if _, err := e.Run("P", map[string]value.Value{"x": value.NewInt(1), "y": value.NewInt(2)}); err == nil {
		t.Error("unknown argument must error")
	}
	if _, err := e.Run("P", map[string]value.Value{"x": value.NewString("s")}); err == nil {
		t.Error("mistyped argument must error")
	}
	if err := e.Install(`CREATE QUERY P() {}`); err == nil {
		t.Error("duplicate install must error")
	}
	// '=' to an accumulator inside ACCUM violates snapshot semantics.
	if err := e.Install(`
CREATE QUERY BadAssign() {
  SumAccum<int> @x;
  S = SELECT v FROM V:v -(E>)- V:w ACCUM w.@x = 1;
}`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("BadAssign", nil); err == nil {
		t.Error("'=' in ACCUM must error (snapshot semantics)")
	}
	// Unknown identifiers diagnose at install time (static validation).
	if err := e.Install(`
CREATE QUERY BadIdent() {
  SumAccum<int> @@n;
  @@n += nosuchvar;
}`); err == nil {
		t.Error("unknown identifier must fail at install")
	}
}

func TestWhileLimitCapsIterations(t *testing.T) {
	g := graph.BuildDiamondChain(1)
	e := New(g, Options{})
	src := `
CREATE QUERY Loopy(int cap) {
  SumAccum<int> @@iters;
  WHILE true LIMIT cap DO
    @@iters += 1;
  END;
  RETURN @@iters;
}
`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run("Loopy", map[string]value.Value{"cap": value.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Returned.Rows[0][0].Int(); got != 7 {
		t.Errorf("iterations = %d, want 7", got)
	}
}

func TestUndirectedPatternThroughEngine(t *testing.T) {
	// A 1..2-bounded undirected hop through the engine.
	s := graph.NewSchema()
	if _, err := s.AddVertexType("Person", graph.AttrDef{Name: "name", Type: graph.AttrString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdgeType("Knows", false); err != nil {
		t.Fatal(err)
	}
	g := graph.New(s)
	a, _ := g.AddVertex("Person", "a", map[string]value.Value{"name": value.NewString("a")})
	b, _ := g.AddVertex("Person", "b", map[string]value.Value{"name": value.NewString("b")})
	c, _ := g.AddVertex("Person", "c", map[string]value.Value{"name": value.NewString("c")})
	if _, err := g.AddEdge("Knows", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("Knows", b, c, nil); err != nil {
		t.Fatal(err)
	}
	e := New(g, Options{})
	src := `
CREATE QUERY FriendsWithin(vertex<Person> p) {
  OrAccum @reached;
  Start = {Person.*};
  S = SELECT t
      FROM Start:s -(Knows*1..2)- Person:t
      WHERE s == p
      ACCUM t.@reached += true;
  SELECT t.name INTO Found FROM Start:t WHERE t.@reached == true ORDER BY t.name;
}
`
	if err := e.Install(src); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run("FriendsWithin", map[string]value.Value{"p": value.NewVertex(int64(a))})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables["Found"]
	// From a: b at 1 hop; c and a itself at 2 hops (a-b-a bounce).
	if len(tab.Rows) != 3 {
		t.Fatalf("found = %v", tab)
	}
	names := []string{tab.Rows[0][0].Str(), tab.Rows[1][0].Str(), tab.Rows[2][0].Str()}
	if names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("names = %v", names)
	}
}
