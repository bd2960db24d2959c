package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/value"
)

// diffQueries exercises every expansion shape the two-pass builder
// must reproduce bit-identically: single hops (with edge aliases),
// counted hops under several DARPEs, cycle-closing rebinds of both hop
// kinds, mixed chains, and each side of the compress() decision.
var diffQueries = []string{
	// Single-hop chain with an edge alias.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(D1>:e)- V:m -(U)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// Counted hop (Kleene star).
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(D1>*)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// Counted hop over an alternation with bounds.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -((D1>|U)*1..3)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// Counted hop closing a cycle (rebind onto the seed alias).
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT s FROM V:s -(D1>)- V:m -(D2>*)- V:s ACCUM s.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// Wildcard bounded repetition.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(_*1..3)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// Single hop closing a cycle (rebind through adjacency expansion).
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT s FROM V:s -(U)- V:m -(U)- V:s ACCUM s.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// Single hop without an edge alias before a counted hop: parallel
	// D1 edges repeat (s, m) rows, so compress() must still run, merge
	// them and sum μ.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(D1>)- V:m -((U|D2>)*1..2)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// The same hop binding its edge: rows stay distinct, compress() is
	// skipped.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(D1>:e)- V:m -((U|D2>)*1..2)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// The wildcard binding its edge: it could meet a directed self-loop
	// from both ends, so compress() runs.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(_:e)- V:m -(D1>*)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// A counted hop after a counted hop.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(D1>*1..2)- V:m -(U*)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	// A counted hop seeded from a SELECT-produced vertex set.
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  S = SELECT m FROM V:s -(D2>)- V:m;
	  R = SELECT t FROM S:s -((D1>|U)*)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
}

// lastSelect digs the FROM clause out of an installed query's last
// SELECT assignment (the shape every diffQueries entry ends in) and
// returns the statements before it, which set up its vertex sets.
func lastSelect(t *testing.T, q *gsql.Query) ([]gsql.Stmt, []gsql.PathPattern) {
	t.Helper()
	for i := len(q.Stmts) - 1; i >= 0; i-- {
		if a, ok := q.Stmts[i].(*gsql.AssignStmt); ok {
			if sel, ok := a.Rhs.(*gsql.SelectExpr); ok {
				return q.Stmts[:i], sel.From
			}
		}
	}
	t.Fatal("query has no SELECT assignment")
	return nil, nil
}

// bindingSig flattens a binding table — aliases, then every row's
// bindings and multiplicity in order — so two tables compare equal iff
// they are bit-identical (rows, order, multiplicities).
func bindingSig(bt *bindingTable) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verts=%v edges=%v rels=%v\n", bt.vertAliases, bt.edgeAliases, bt.relAliases)
	for _, r := range bt.rows {
		fmt.Fprintf(&sb, "%v|%v|%d\n", r.verts, r.edges, r.mult)
	}
	return sb.String()
}

// resultSig flattens a run's printed tables (values in row order).
func resultSig(res *Result) string {
	var sb strings.Builder
	for _, tbl := range res.Printed {
		sb.WriteString(tbl.String())
	}
	return sb.String()
}

// expandOutcome captures everything the differential test compares for
// one (graph, query, worker count): the raw binding table built by the
// last SELECT's FROM clause and the full query output.
func expandOutcome(t *testing.T, g *graph.Graph, qsrc string, workers int) (string, string) {
	t.Helper()
	e := New(g, Options{Workers: workers, CountCacheSize: -1, MinParallelRows: 1})
	if err := e.Install(qsrc); err != nil {
		t.Fatalf("install: %v", err)
	}
	q := e.queries["Q"]
	rs, err := newRunState(e, e.Graph().Snapshot(), q, e.plans["Q"], nil)
	if err != nil {
		t.Fatalf("runState: %v", err)
	}
	prefix, from := lastSelect(t, q)
	if _, err := rs.execStmts(prefix); err != nil {
		t.Fatalf("statements before the SELECT (workers=%d): %v", workers, err)
	}
	bt, err := rs.buildBindings(from, nil)
	if err != nil {
		t.Fatalf("buildBindings (workers=%d): %v", workers, err)
	}
	res, err := e.Run("Q", nil)
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return bindingSig(bt), resultSig(res)
}

// refOutcome is expandOutcome under the reference expansion.
func refOutcome(t *testing.T, g *graph.Graph, qsrc string) (bt, res string) {
	t.Helper()
	withRefExpansion(t, func() { bt, res = expandOutcome(t, g, qsrc, 1) })
	return bt, res
}

// checkAgainstRef compares the two-pass builder at Workers 1, 2 and 8
// with the reference expansion: binding tables (rows, order,
// multiplicities) and query outputs must be byte-identical.
func checkAgainstRef(t *testing.T, what string, g *graph.Graph, qsrc string) {
	t.Helper()
	refBT, refRes := refOutcome(t, g, qsrc)
	for _, w := range []int{1, 2, 8} {
		gotBT, gotRes := expandOutcome(t, g, qsrc, w)
		if gotBT != refBT {
			t.Fatalf("%s workers %d: binding table diverged\nreference:\n%s\ngot:\n%s", what, w, refBT, gotBT)
		}
		if gotRes != refRes {
			t.Fatalf("%s workers %d: query output diverged\nreference:\n%s\ngot:\n%s", what, w, refRes, gotRes)
		}
	}
}

// TestParallelExpansionBitIdentical is the core contract of the
// two-pass hop builder: over 50 random mixed graphs (which carry
// parallel edges) and every diffQueries shape, the binding tables and
// query outputs at Workers 1, 2 and 8 must be byte-identical to the
// row-by-row reference expansion with its always-on compress().
// MinParallelRows is forced to 1 so even tiny tables take the parallel
// path.
func TestParallelExpansionBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.BuildRandomMixedGraph(2+r.Intn(8), 1+r.Intn(16), seed)
		for qi, qsrc := range diffQueries {
			checkAgainstRef(t, fmt.Sprintf("seed %d query %d", seed, qi), g, qsrc)
		}
	}
}

// TestSelfLoopWildcardCompress covers the one edge-binding single hop
// that can repeat a row: the wildcard reaches a directed self-loop
// through both of its half-edges, binding the same (v, e, v) twice, so
// the counted hop after it must still compress.
func TestSelfLoopWildcardCompress(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := graph.BuildRandomMixedGraph(5, 10, seed)
		for v := graph.VID(0); v < 5; v += 2 {
			if _, err := g.AddEdge("D1", v, v, nil); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstRef(t, fmt.Sprintf("seed %d", seed), g, `CREATE QUERY Q() {
		  SumAccum<int> @n;
		  R = SELECT t FROM V:s -(_:e)- V:m -(D1>*)- V:t ACCUM t.@n += 1;
		  PRINT R[R.name, R.@n];
		}`)
	}
}

// TestParallelExpansionCancellation drives both hop kinds with an
// already-cancelled context at every worker count: every shard's first
// stride check (and the counting kernel's done poll) must surface
// ErrCancelled, serial and parallel alike.
func TestParallelExpansionCancellation(t *testing.T) {
	g := graph.BuildRandomMixedGraph(8, 24, 3)
	srcs := map[string]string{
		"single":  `CREATE QUERY Q() { R = SELECT t FROM V:s -(D1>)- V:t; PRINT R; }`,
		"counted": `CREATE QUERY Q() { R = SELECT t FROM V:s -(D1>*)- V:t; PRINT R; }`,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for kind, qsrc := range srcs {
		for _, w := range []int{1, 2, 8} {
			e := New(g, Options{Workers: w, MinParallelRows: 1})
			if err := e.Install(qsrc); err != nil {
				t.Fatal(err)
			}
			q := e.queries["Q"]
			rs, err := newRunState(e, e.Graph().Snapshot(), q, e.plans["Q"], nil)
			if err != nil {
				t.Fatal(err)
			}
			rs.ctx = ctx
			rs.done = ctx.Done()
			_, from := lastSelect(t, q)
			if _, err := rs.buildBindings(from, nil); !errors.Is(err, ErrCancelled) {
				t.Errorf("%s hop, workers %d: want ErrCancelled, got %v", kind, w, err)
			}
		}
	}
}

// TestParallelExpansionSemanticsFlavors re-checks bit-identity against
// the reference expansion for the non-default legality flavors, whose
// counted hops run through the enumeration path of countSources.
func TestParallelExpansionSemanticsFlavors(t *testing.T) {
	const qsrc = `CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(U*1..3)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`
	for seed := int64(0); seed < 10; seed++ {
		g := graph.BuildRandomMixedGraph(6, 14, seed)
		for _, sem := range []string{"nre", "nrv", "exists"} {
			src := strings.Replace(qsrc, "CREATE QUERY Q() {",
				"CREATE QUERY Q() SEMANTICS "+sem+" {", 1)
			checkAgainstRef(t, fmt.Sprintf("seed %d semantics %s", seed, sem), g, src)
		}
	}
}

// TestVSetFilterHoisted pins the satellite: hops naming the same vset
// reuse one memoized membership map, and reassigning the vset drops
// it.
func TestVSetFilterHoisted(t *testing.T) {
	g := graph.BuildRandomMixedGraph(6, 12, 1)
	e := New(g, Options{})
	rs, err := newRunState(e, e.Graph().Snapshot(), &gsql.Query{Name: "t"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := []graph.VID{0, 2, 4}
	rs.setVSet("S", ids)
	m1 := rs.vsetLookup("S", ids)
	m2 := rs.vsetLookup("S", ids)
	if len(m1) != 3 || !m1[2] || m1[1] {
		t.Fatalf("membership map wrong: %v", m1)
	}
	// Same map instance must be returned (maps are reference types;
	// mutating a copy would show in the other if shared).
	m1[graph.VID(5)] = true
	if !m2[5] {
		t.Error("vsetLookup rebuilt the map instead of memoizing it")
	}
	rs.setVSet("S", []graph.VID{1})
	m3 := rs.vsetLookup("S", []graph.VID{1})
	if m3[5] || !m3[1] {
		t.Error("setVSet did not invalidate the memoized lookup")
	}
	// End to end: a query filtering two hops through one vset still
	// answers correctly.
	if err := e.Install(`CREATE QUERY Hoist() {
	  S = {V.*};
	  R = SELECT t FROM S:s -(D1>)- S:m -(D1>)- S:t;
	  PRINT R;
	}`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("Hoist", map[string]value.Value{}); err != nil {
		t.Fatal(err)
	}
}

// typedHopQueries are single-hop shapes the CSR segment walk serves:
// every adornment, edge aliases, a rebind, an adornment whose segment
// is always empty (D1 is directed) and degree reads in ACCUM.
var typedHopQueries = []string{
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  SumAccum<int> @d;
	  R = SELECT t FROM V:s -(D1>:e)- V:m -(<D2)- V:t
	      ACCUM t.@n += 1, t.@d += s.outdegree("U") + s.outdegree() + m.degree();
	  PRINT R[R.name, R.@n, R.@d];
	}`,
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(U:e)- V:m -(<D1:f)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT s FROM V:s -(D2>)- V:m -(U)- V:s ACCUM s.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
	`CREATE QUERY Q() {
	  SumAccum<int> @n;
	  R = SELECT t FROM V:s -(D1)- V:t ACCUM t.@n += 1;
	  PRINT R[R.name, R.@n];
	}`,
}

// TestTypedHopsOnPatchedAndPinnedSnapshots runs the typed single hops
// (and every diffQueries shape) on graphs that fold often: once on the
// head, whose CSR is a patched base plus post-fold delta edges, and
// once on a snapshot pinned before the last fold, whose CSR is a
// private build. Binding tables and outputs at Workers 1, 2 and 8 must
// be byte-identical to the reference expansion's g.Neighbors walk.
func TestTypedHopsOnPatchedAndPinnedSnapshots(t *testing.T) {
	queries := append(append([]string(nil), typedHopQueries...), diffQueries...)
	for seed := int64(0); seed < 12; seed++ {
		head, pinned := graph.BuildRandomChurnGraph(seed)
		if !head.Snapshot().Freeze().HasExt() {
			t.Fatalf("seed %d: head snapshot has no post-fold delta", seed)
		}
		for qi, qsrc := range queries {
			checkAgainstRef(t, fmt.Sprintf("seed %d query %d pinned", seed, qi), pinned, qsrc)
			checkAgainstRef(t, fmt.Sprintf("seed %d query %d head", seed, qi), head, qsrc)
		}
	}
}
