package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gsqlgo/internal/algo"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// buildCompileDiffGraph constructs a random digraph whose vertex type N
// carries one attribute of every scalar kind the fast kernel
// specializes (int score, float weight, bool flag, string name) and
// whose edge type E carries an int attribute, so attribute-offset
// resolution and every unboxed fold path get exercised.
func buildCompileDiffGraph(n, edges int, seed int64) *graph.Graph {
	s := graph.NewSchema()
	if _, err := s.AddVertexType("N",
		graph.AttrDef{Name: "name", Type: graph.AttrString},
		graph.AttrDef{Name: "score", Type: graph.AttrInt},
		graph.AttrDef{Name: "weight", Type: graph.AttrFloat},
		graph.AttrDef{Name: "flag", Type: graph.AttrBool},
	); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("E", true, graph.AttrDef{Name: "w", Type: graph.AttrInt}); err != nil {
		panic(err)
	}
	g := graph.New(s)
	r := rand.New(rand.NewSource(seed))
	ids := make([]graph.VID, n)
	for i := range ids {
		v, err := g.AddVertex("N", strconv.Itoa(i), map[string]value.Value{
			"name":   value.NewString("n" + strconv.Itoa(i)),
			"score":  value.NewInt(int64(r.Intn(20) - 5)),
			"weight": value.NewFloat(float64(r.Intn(64)) / 4),
			"flag":   value.NewBool(r.Intn(2) == 0),
		})
		if err != nil {
			panic(err)
		}
		ids[i] = v
	}
	for i := 0; i < edges; i++ {
		a, b := ids[r.Intn(n)], ids[r.Intn(n)]
		if a == b {
			continue
		}
		if _, err := g.AddEdge("E", a, b, map[string]value.Value{
			"w": value.NewInt(int64(r.Intn(10))),
		}); err != nil {
			panic(err)
		}
	}
	return g
}

// compileDiffCorpus covers the compiled kernel's surface: every fast
// accumulator kind, boxed targets, attribute and edge-attribute
// offsets, conditionals and typed locals, POST-ACCUM with '=' and
// prev-value reads, fusable block runs, multiplicity-bearing counted
// hops, runtime errors, and the declared interpreter fallback.
var compileDiffCorpus = []struct {
	name string
	src  string
	// wantCompiled: at least one clause must take the kernel path on
	// the compiling engine (false for the deliberate fallback).
	wantCompiled bool
}{
	{"sums_attrs", `CREATE QUERY Q() {
	  SumAccum<int> @@si;
	  SumAccum<float> @@sf;
	  SumAccum<int> @n;
	  R = SELECT t FROM N:s -(E>:e)- N:t
	      ACCUM @@si += s.score + e.w, @@sf += t.weight * 2.0, t.@n += s.score;
	  PRINT @@si, @@sf;
	  PRINT R[R.name, R.@n];
	}`, true},
	{"minmax_bool_where", `CREATE QUERY Q() {
	  MinAccum<int> @@mn;
	  MaxAccum<float> @@mx;
	  OrAccum @@any;
	  AndAccum @@all;
	  MaxAccum<int> @best;
	  R = SELECT t FROM N:s -(E>)- N:t
	      WHERE s.score > 2
	      ACCUM @@mn += s.score, @@mx += t.weight, @@any += t.flag,
	            @@all += t.flag, t.@best += s.score;
	  PRINT @@mn, @@mx, @@any, @@all;
	  PRINT R[R.name, R.@best];
	}`, true},
	{"avg_case_local", `CREATE QUERY Q() {
	  AvgAccum<float> @@avg;
	  SumAccum<int> @@cnt;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM int sc = s.score * 2,
	            @@avg += sc + CASE WHEN t.flag THEN 1 ELSE 0 END,
	            IF s.flag AND sc > 3 THEN @@cnt += 1 ELSE @@cnt += sc END;
	  PRINT @@avg, @@cnt;
	}`, true},
	{"post_assign_prev", `CREATE QUERY Q() {
	  SumAccum<int> @n;
	  SumAccum<float> @r;
	  SumAccum<float> @@tot;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM t.@n += 1
	      POST-ACCUM t.@r = t.@n * 0.5, @@tot += t.@r;
	  PRINT @@tot;
	  PRINT R[R.name, R.@n, R.@r];
	}`, true},
	{"fuse_two", `CREATE QUERY Q() {
	  SumAccum<int> @@a;
	  SumAccum<int> @@b;
	  X = SELECT t FROM N:s -(E>)- N:t ACCUM @@a += s.score;
	  Y = SELECT t FROM N:s -(E>)- N:t ACCUM @@b += t.score;
	  PRINT @@a, @@b;
	}`, true},
	{"fuse_four_counted", `CREATE QUERY Q() {
	  SumAccum<int> @@a;
	  SumAccum<float> @@b;
	  MinAccum<int> @@c;
	  MaxAccum<int> @@d;
	  A = SELECT t FROM N:s -(E>*1..2)- N:t ACCUM @@a += 1;
	  B = SELECT t FROM N:s -(E>*1..2)- N:t ACCUM @@b += t.weight;
	  C = SELECT t FROM N:s -(E>*1..2)- N:t ACCUM @@c += t.score;
	  D = SELECT t FROM N:s -(E>*1..2)- N:t ACCUM @@d += s.score;
	  PRINT @@a, @@b, @@c, @@d;
	}`, true},
	{"string_methods", `CREATE QUERY Q() {
	  MaxAccum<string> @@last;
	  SumAccum<int> @@deg;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM @@last += t.name, @@deg += s.outdegree();
	  PRINT @@last, @@deg;
	}`, true},
	{"err_wrong_op", `CREATE QUERY Q() {
	  SumAccum<int> @@x;
	  R = SELECT t FROM N:s -(E>)- N:t ACCUM @@x = 1;
	  PRINT @@x;
	}`, true},
	{"err_type_mismatch", `CREATE QUERY Q() {
	  SumAccum<int> @@x;
	  R = SELECT t FROM N:s -(E>)- N:t ACCUM @@x += t.name;
	  PRINT @@x;
	}`, true},
	{"size_fallback", `CREATE QUERY Q() {
	  SumAccum<int> @@a;
	  X = SELECT s FROM N:s;
	  Y = SELECT t FROM N:s -(E>)- N:t ACCUM @@a += X.size();
	  PRINT @@a;
	}`, false},
	{"where_attr_param_literal", `CREATE QUERY Q(int lo, float hi, string nm) {
	  SumAccum<int> @@n;
	  SumAccum<int> @deg;
	  R = SELECT t FROM N:s -(E>:e)- N:t
	      WHERE s.score >= lo AND t.weight < hi AND e.w != 3 AND s.name != nm
	            AND t.flag == true AND e.w <= 8 AND s.score > -3
	      ACCUM @@n += e.w, t.@deg += 1;
	  PRINT @@n;
	  PRINT R[R.name, R.@deg];
	}`, true},
	{"where_alias_ne", `CREATE QUERY Q() {
	  SumAccum<int> @@n;
	  R = SELECT t FROM N:s -(E>)- N:m -(E>)- N:t
	      WHERE s <> t AND m != s
	      ACCUM @@n += 1;
	  PRINT @@n;
	}`, true},
	// Parameters are scalar, so the list reaches IN through a
	// SetAccum filled from them and through a tuple of them.
	{"where_in", `CREATE QUERY Q(int a, int b) {
	  SetAccum<int> @@pick;
	  SumAccum<int> @@n;
	  @@pick += a;
	  @@pick += b;
	  R = SELECT t FROM N:s -(E>:e)- N:t
	      WHERE t.score IN @@pick OR e.w IN (a, b, 7)
	      ACCUM @@n += 1;
	  PRINT @@n;
	}`, true},
	{"where_case", `CREATE QUERY Q() {
	  SumAccum<float> @@w;
	  R = SELECT t FROM N:s -(E>)- N:t
	      WHERE CASE WHEN s.flag THEN s.score > 0 WHEN t.flag THEN t.weight > 4.0 END
	      ACCUM @@w += t.weight;
	  PRINT @@w;
	}`, true},
	{"where_short_circuit", `CREATE QUERY Q() {
	  SumAccum<int> @@n;
	  R = SELECT t FROM N:s -(E>)- N:t
	      WHERE (s.score > 100 AND t.nosuch == 1) OR s.score < 100 OR to_datetime(t.name) > 0
	      ACCUM @@n += 1;
	  PRINT @@n;
	}`, true},
	{"err_where_guarded", `CREATE QUERY Q() {
	  SumAccum<int> @@n;
	  R = SELECT t FROM N:s -(E>)- N:t
	      WHERE s.flag AND to_datetime(s.name) > 0
	      ACCUM @@n += 1;
	  PRINT @@n;
	}`, true},
	{"err_where_div_zero", `CREATE QUERY Q() {
	  SumAccum<int> @@n;
	  R = SELECT t FROM N:s -(E>)- N:t
	      WHERE s.score / (t.score - t.score) > 0
	      ACCUM @@n += 1;
	  PRINT @@n;
	}`, true},
	{"where_vacc", `CREATE QUERY Q() {
	  SumAccum<int> @n;
	  SumAccum<int> @@hits;
	  A = SELECT t FROM N:s -(E>)- N:t ACCUM t.@n += 1;
	  B = SELECT t FROM N:s -(E>)- N:t
	      WHERE s.@n > 1 AND t.@n >= s.@n
	      ACCUM @@hits += t.@n;
	  PRINT @@hits;
	}`, true},
	{"where_rel_column", `CREATE QUERY Q() {
	  SumAccum<int> @@k;
	  SumAccum<int> @c;
	  R = SELECT t FROM N:s -(E>)- N:t, Lbl:r
	      WHERE r.name == t.name AND r.k > 1
	      ACCUM @@k += r.k, t.@c += 1;
	  PRINT @@k;
	  PRINT R[R.name, R.@c];
	}`, true},
	{"where_run_local", `CREATE QUERY Q(int a) {
	  SetAccum<int> @@pick;
	  SumAccum<int> @@n;
	  @@pick += a;
	  @@pick += a + 2;
	  FOREACH x IN @@pick DO
	    R = SELECT t FROM N:s -(E>)- N:t WHERE s.score == x ACCUM @@n += x;
	  END;
	  PRINT @@n;
	}`, true},
	{"where_fused", `CREATE QUERY Q() {
	  SumAccum<int> @@a;
	  SumAccum<int> @@b;
	  X = SELECT t FROM N:s -(E>)- N:t WHERE s.score > 1 ACCUM @@a += s.score;
	  Y = SELECT t FROM N:s -(E>)- N:t WHERE s.score > 1 ACCUM @@b += t.score;
	  PRINT @@a, @@b;
	}`, true},
	// X.size() keeps this WHERE on the interpreter; its ACCUM compiles.
	{"where_size_fallback", `CREATE QUERY Q() {
	  SumAccum<int> @@a;
	  X = SELECT s FROM N:s WHERE s.score > 0;
	  Y = SELECT t FROM N:s -(E>)- N:t WHERE X.size() > 2 AND s.flag ACCUM @@a += 1;
	  PRINT @@a;
	}`, true},
	// PageRank-shaped bodies: the typed rung's reads and writes.
	{"pagerank_typed", `CREATE QUERY Q(float maxChange, int maxIteration, float dampingFactor) {
	  MaxAccum<float> @@maxDifference = 9999;
	  SumAccum<float> @received_score;
	  SumAccum<float> @score = 1;
	  AllV = {N.*};
	  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
	    @@maxDifference = 0;
	    S = SELECT v FROM AllV:v -(E>)- N:n
	        ACCUM n.@received_score += v.@score/v.outdegree("E")
	        POST-ACCUM v.@score = 1-dampingFactor + dampingFactor * v.@received_score,
	                   v.@received_score = 0,
	                   @@maxDifference += abs(v.@score - v.@score');
	  END;
	  PRINT @@maxDifference;
	  PRINT AllV[AllV.name, AllV.@score];
	}`, true},
	{"pagerank_outdegree", `CREATE QUERY Q(float maxChange, int maxIteration, float dampingFactor) {
	  MaxAccum<float> @@maxDifference = 9999;
	  SumAccum<float> @received_score;
	  SumAccum<float> @score = 1;
	  AllV = {N.*};
	  WHILE @@maxDifference > maxChange LIMIT maxIteration DO
	    @@maxDifference = 0;
	    S = SELECT v FROM AllV:v -(E>)- N:n
	        ACCUM n.@received_score += v.@score/v.outdegree()
	        POST-ACCUM v.@score = 1-dampingFactor + dampingFactor * v.@received_score,
	                   v.@received_score = 0,
	                   @@maxDifference += abs(v.@score - v.@score');
	  END;
	  PRINT @@maxDifference;
	  PRINT AllV[AllV.name, AllV.@score];
	}`, true},
	// Sum<int> reads in both clauses; v.@c' before the group's first
	// write to @c (the live value) and after it (the record).
	{"pagerank_sum_int_prev", `CREATE QUERY Q(int a) {
	  SumAccum<int> @c = 1;
	  SumAccum<int> @@seen;
	  SumAccum<int> @@delta;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM t.@c += s.@c * 2 - a, @@seen += s.@c + t.@c
	      POST-ACCUM @@delta += t.@c' - t.@c,
	                 t.@c = t.@c - a,
	                 @@delta += (t.@c' - t.@c) * 10,
	                 t.@c += t.@c';
	  PRINT @@seen, @@delta;
	  PRINT R[R.name, R.@c];
	}`, true},
	// A zero out-degree divides a float by zero: +Inf (NaN for 0/0),
	// not an error, on both rungs.
	{"pagerank_zero_outdegree", `CREATE QUERY Q() {
	  MaxAccum<float> @@mx;
	  SumAccum<float> @inv;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM @@mx += s.weight / t.outdegree(), t.@inv += 1.0 / t.outdegree("E")
	      POST-ACCUM t.@inv = t.@inv * 2;
	  PRINT @@mx;
	  PRINT R[R.name, R.@inv];
	}`, true},
	// int/int by a zero out-degree misses to the boxed path, which owns
	// the error text.
	{"err_pagerank_int_div_zero", `CREATE QUERY Q() {
	  SumAccum<float> @@x;
	  R = SELECT t FROM N:s -(E>)- N:t ACCUM @@x += s.score / t.outdegree();
	  PRINT @@x;
	}`, true},
	// A MaxAccum<float> fed ints holds an int: typed reads of it miss
	// and the boxed path keeps the int kind.
	{"pagerank_max_float_holding_int", `CREATE QUERY Q() {
	  MaxAccum<float> @m;
	  SumAccum<float> @@s;
	  MaxAccum<float> @@g;
	  A = SELECT t FROM N:s -(E>)- N:t ACCUM t.@m += s.score;
	  B = SELECT t FROM N:s -(E>)- N:t
	      ACCUM @@s += t.@m * 1.5, @@g += t.@m
	      POST-ACCUM t.@m = t.@m + 0.5, @@g += t.@m;
	  PRINT @@s, @@g;
	  PRINT B[B.name, B.@m];
	}`, true},
	// fi is declared float and bound to an int argument; typed '=' and
	// '+=' land in live Sum and Avg accumulators.
	{"pagerank_int_arg_float_param", `CREATE QUERY Q(float fi, int a) {
	  SumAccum<float> @@s;
	  SumAccum<float> @v;
	  AvgAccum<float> @av;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM @@s += fi * s.score - a, t.@v += fi
	      POST-ACCUM t.@v = t.@v / fi + a, t.@v += fi * 0.5,
	                 t.@av = t.@v, t.@av += a;
	  PRINT @@s;
	  PRINT R[R.name, R.@v, R.@av];
	}`, true},
	{"pagerank_abs", `CREATE QUERY Q() {
	  SumAccum<int> @@ai;
	  SumAccum<float> @@af;
	  MinAccum<int> @lo;
	  R = SELECT t FROM N:s -(E>)- N:t
	      ACCUM @@ai += abs(s.score - 10), @@af += abs(t.weight - 20.0), t.@lo += abs(s.score - 30)
	      POST-ACCUM t.@lo = abs(t.@lo - 50), @@af += abs(-t.weight);
	  PRINT @@ai, @@af;
	  PRINT R[R.name, R.@lo];
	}`, true},
}

// typedCorpus names the corpus entries whose every ACCUM / POST-ACCUM
// statement must run on the typed rung without a single boxed re-run.
var typedCorpus = map[string]bool{
	"pagerank_typed":               true,
	"pagerank_outdegree":           true,
	"pagerank_sum_int_prev":        true,
	"pagerank_zero_outdegree":      true,
	"pagerank_int_arg_float_param": true,
	"pagerank_abs":                 true,
}

// compileDiffArgs supplies each corpus query's declared parameters by
// name.
var compileDiffArgs = map[string]value.Value{
	"lo":            value.NewInt(0),
	"hi":            value.NewFloat(10),
	"nm":            value.NewString("n1"),
	"a":             value.NewInt(1),
	"b":             value.NewInt(2),
	"fi":            value.NewInt(3),
	"maxChange":     value.NewFloat(0.001),
	"maxIteration":  value.NewInt(6),
	"dampingFactor": value.NewFloat(0.85),
}

// compileDiffTable is the relational table every corpus engine
// registers (as "Lbl"); its names match some of the graph's vertices.
func compileDiffTable(t *testing.T) *RelTable {
	t.Helper()
	tbl, err := NewRelTable("Lbl", []string{"name", "k"}, [][]value.Value{
		{value.NewString("n0"), value.NewInt(1)},
		{value.NewString("n1"), value.NewInt(2)},
		{value.NewString("n2"), value.NewInt(3)},
		{value.NewString("n3"), value.NewInt(4)},
		{value.NewString("zz"), value.NewInt(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// compileDiffSig flattens everything observable about a run — globals
// (sorted), INTO tables (sorted), PRINT output in order, and the
// RETURN table — so compiled and interpreted runs compare equal iff
// they are bit-identical.
func compileDiffSig(res *Result) string {
	var sb strings.Builder
	for _, n := range res.GlobalNames() {
		v, _ := res.Global(n)
		fmt.Fprintf(&sb, "@@%s=%v\n", n, v)
	}
	tnames := make([]string, 0, len(res.Tables))
	for n := range res.Tables {
		tnames = append(tnames, n)
	}
	sort.Strings(tnames)
	for _, n := range tnames {
		sb.WriteString(res.Tables[n].String())
	}
	for _, tbl := range res.Printed {
		sb.WriteString(tbl.String())
	}
	if res.Returned != nil {
		sb.WriteString(res.Returned.String())
	}
	return sb.String()
}

// runCompileDiff executes one (graph, query, workers) pair on both
// engines and returns the pair of outcomes.
func runCompileDiff(t *testing.T, g *graph.Graph, src string, workers int) (cRes, iRes *Result, cErr, iErr error) {
	t.Helper()
	mk := func(disable bool) (*Result, error) {
		e := New(g, Options{Workers: workers, MinParallelRows: 1, DisableAccumCompile: disable})
		if err := e.RegisterTable(compileDiffTable(t)); err != nil {
			t.Fatal(err)
		}
		if err := e.Install(src); err != nil {
			t.Fatalf("install (disable=%v): %v", disable, err)
		}
		params, err := e.QueryParams("Q")
		if err != nil {
			t.Fatal(err)
		}
		args := map[string]value.Value{}
		for _, p := range params {
			args[p.Name] = compileDiffArgs[p.Name]
		}
		return e.Run("Q", args)
	}
	cRes, cErr = mk(false)
	iRes, iErr = mk(true)
	return
}

// TestCompiledKernelsBitIdenticalToInterpreter is the compiled path's
// core contract: over the corpus × 50 random graphs × worker counts
// {1, 2, 8}, compiled results — globals, tables, prints, returns — and
// error strings must be bit-identical to the tree-walking
// interpreter's, including which of several racing shard errors a run
// reports.
func TestCompiledKernelsBitIdenticalToInterpreter(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := buildCompileDiffGraph(3+r.Intn(12), 4+r.Intn(28), seed)
		for _, tc := range compileDiffCorpus {
			for _, w := range []int{1, 2, 8} {
				cRes, iRes, cErr, iErr := runCompileDiff(t, g, tc.src, w)
				if (cErr == nil) != (iErr == nil) {
					t.Fatalf("seed %d %s workers %d: error divergence: compiled=%v interpreted=%v",
						seed, tc.name, w, cErr, iErr)
				}
				if cErr != nil {
					if cErr.Error() != iErr.Error() {
						t.Fatalf("seed %d %s workers %d: error text diverged:\ncompiled:    %v\ninterpreted: %v",
							seed, tc.name, w, cErr, iErr)
					}
					continue
				}
				if cs, is := compileDiffSig(cRes), compileDiffSig(iRes); cs != is {
					t.Fatalf("seed %d %s workers %d: results diverged\ncompiled:\n%s\ninterpreted:\n%s",
						seed, tc.name, w, cs, is)
				}
				if iRes.Stats.AccumCompiledStmts != 0 || iRes.Stats.AccumUnboxedMisses != 0 {
					t.Fatalf("%s: disabled engine reported compiled statements or unboxed misses", tc.name)
				}
				if typedCorpus[tc.name] && cRes.Stats.AccumUnboxedMisses != 0 {
					t.Fatalf("seed %d %s workers %d: %d unboxed misses, want 0",
						seed, tc.name, w, cRes.Stats.AccumUnboxedMisses)
				}
				if tc.wantCompiled && cRes.Stats.AccumCompiledStmts == 0 {
					t.Fatalf("%s: expected the kernel path, got all-interpreted (stats %+v)",
						tc.name, cRes.Stats)
				}
				if !tc.wantCompiled && cRes.Stats.AccumInterpretedStmts == 0 {
					t.Fatalf("%s: expected the interpreter fallback to run", tc.name)
				}
			}
		}
	}
}

// TestCompiledKernelCancellation drives an already-cancelled context
// through both engines at every worker count: both must surface
// ErrCancelled rather than partial results.
func TestCompiledKernelCancellation(t *testing.T) {
	g := buildCompileDiffGraph(10, 30, 7)
	const src = `CREATE QUERY Q() {
	  SumAccum<int> @@a;
	  SumAccum<int> @n;
	  R = SELECT t FROM N:s -(E>)- N:t ACCUM @@a += s.score, t.@n += 1;
	  PRINT @@a;
	}`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, disable := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			e := New(g, Options{Workers: w, MinParallelRows: 1, DisableAccumCompile: disable})
			if err := e.Install(src); err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunCtx(ctx, "Q", nil); !errors.Is(err, ErrCancelled) {
				t.Errorf("disable=%v workers=%d: want ErrCancelled, got %v", disable, w, err)
			}
		}
	}

	// A deadline that expires while a large compiled WHERE is filtering
	// (expiry is simulated by cancelling with context.DeadlineExceeded
	// as soon as the where span opens): the predicate's stride
	// checkpoint must stop the run with ErrCancelled before ACCUM.
	big := buildCompileDiffGraph(1500, 15000, 7)
	e := New(big, Options{Workers: 2})
	if err := e.Install(`CREATE QUERY W() {
	  SumAccum<int> @@a;
	  R = SELECT t FROM N:s -(E>)- N:m -(E>)- N:t
	      WHERE s.score + m.score < t.score * 3 AND s.name != t.name AND m.weight >= 0.0
	      ACCUM @@a += 1;
	  PRINT @@a;
	}`); err != nil {
		t.Fatal(err)
	}
	root := trace.New("run")
	dctx, expire := context.WithCancelCause(trace.NewContext(context.Background(), root))
	defer expire(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for root.Find("where") == nil {
			select {
			case <-stop:
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
		expire(context.DeadlineExceeded)
	}()
	_, err := e.RunCtx(dctx, "W", nil)
	close(stop)
	wg.Wait()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline inside WHERE: want ErrCancelled, got %v", err)
	}
	if compiled, _ := root.Find("where").Attr("compiled"); compiled != true {
		t.Fatalf("WHERE did not take the compiled path (compiled=%v)", compiled)
	}
	if root.Find("accum") != nil {
		t.Fatal("the deadline expired after WHERE finished; the table is too small to test the WHERE checkpoint")
	}
}

// installUnvalidated registers a query the install-time validator
// would reject, so the lazy run-time errors it normally pre-empts stay
// reachable to tests.
func installUnvalidated(t *testing.T, e *Engine, src string) {
	t.Helper()
	f, err := gsql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, q := range f.Queries {
		e.queries[q.Name] = q
		e.plans[q.Name] = compileQuery(e, q)
	}
}

// TestCompiledWhereLazyErrors pins the compiled predicate's lazy error
// for an undeclared accumulator: it fires only on rows that evaluate
// it, with the interpreter's text.
func TestCompiledWhereLazyErrors(t *testing.T) {
	g := buildCompileDiffGraph(12, 30, 3)
	for _, tc := range []struct {
		where   string
		wantErr bool
	}{
		{"s.score > 100 AND @@nope > 1", false},
		{"s.score > 100 OR @@nope > 1", true},
		{"s.score > 100 OR s.@nope > 1", true},
	} {
		src := fmt.Sprintf(`CREATE QUERY Q() {
		  SumAccum<int> @@n;
		  R = SELECT t FROM N:s -(E>)- N:t WHERE %s ACCUM @@n += 1;
		  PRINT @@n;
		}`, tc.where)
		var outs [2]string
		for i, disable := range []bool{false, true} {
			e := New(g, Options{DisableAccumCompile: disable})
			installUnvalidated(t, e, src)
			res, err := e.Run("Q", nil)
			if (err != nil) != tc.wantErr {
				t.Fatalf("%s (disable=%v): err = %v, want error %v", tc.where, disable, err, tc.wantErr)
			}
			if err != nil {
				outs[i] = err.Error()
			} else {
				outs[i] = compileDiffSig(res)
			}
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: compiled and interpreted diverged:\ncompiled:    %s\ninterpreted: %s", tc.where, outs[0], outs[1])
		}
	}
}

// TestSNBQueriesCompiledMatchInterpreter runs the five IC queries at
// h = 2 and 3 plus Qacc on a compiling and an interpreting engine: the
// results and the surviving binding rows must be identical, and every
// WHERE on the compiling engine must take the compiled path.
func TestSNBQueriesCompiledMatchInterpreter(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{SF: 0.2, Seed: 11})
	pv, ok := g.VertexByKey("Person", "person0")
	if !ok {
		t.Fatal("person0 missing")
	}
	p, k := value.NewVertex(int64(pv)), value.NewInt(20)
	argsOf := map[string]map[string]value.Value{
		"ic3":  {"p": p, "countryX": value.NewString("Country-1"), "countryY": value.NewString("Country-2"), "k": k},
		"ic5":  {"p": p, "minDate": graph.MustDatetime("2010-06-01"), "k": k},
		"ic6":  {"p": p, "tagName": value.NewString("Tag-3"), "k": k},
		"ic9":  {"p": p, "maxDate": graph.MustDatetime("2012-06-01"), "k": k},
		"ic11": {"p": p, "countryName": value.NewString("Country-0"), "maxYear": value.NewInt(2010), "k": k},
	}
	type snbRun struct {
		name, src string
		args      map[string]value.Value
	}
	var runs []snbRun
	for _, h := range []int{2, 3} {
		for short, src := range ldbc.ICQueries(h) {
			runs = append(runs, snbRun{ldbc.ICName(short, h), src, argsOf[short]})
		}
	}
	runs = append(runs, snbRun{"Qacc", ldbc.QACC(), map[string]value.Value{
		"lo": graph.MustDatetime("2010-01-01"),
		"hi": graph.MustDatetime("2012-12-31"),
	}})
	compiled := New(g, Options{})
	interp := New(g, Options{DisableAccumCompile: true})
	for _, r := range runs {
		for _, e := range []*Engine{compiled, interp} {
			if err := e.Install(r.src); err != nil {
				t.Fatalf("%s: install: %v", r.name, err)
			}
		}
		root := trace.New("run")
		cRes, err := compiled.RunCtx(trace.NewContext(context.Background(), root), r.name, r.args)
		root.End()
		if err != nil {
			t.Fatalf("%s compiled: %v", r.name, err)
		}
		iRes, err := interp.Run(r.name, r.args)
		if err != nil {
			t.Fatalf("%s interpreted: %v", r.name, err)
		}
		if cs, is := compileDiffSig(cRes), compileDiffSig(iRes); cs != is {
			t.Errorf("%s: results diverged\ncompiled:\n%s\ninterpreted:\n%s", r.name, cs, is)
		}
		if cRes.Stats.BindingRows != iRes.Stats.BindingRows {
			t.Errorf("%s: binding rows %d compiled vs %d interpreted", r.name, cRes.Stats.BindingRows, iRes.Stats.BindingRows)
		}
		wheres := root.FindAll("where")
		if len(wheres) == 0 {
			t.Fatalf("%s: no where span", r.name)
		}
		for _, w := range wheres {
			if c, _ := w.Attr("compiled"); c != true {
				t.Errorf("%s: a WHERE ran interpreted", r.name)
			}
		}
	}
}

// TestWhereSpanMarksCompiledPath checks the where span's compiled
// attribute: true for a covered predicate, false for the X.size()
// fallback and for every WHERE of an engine with compilation disabled.
func TestWhereSpanMarksCompiledPath(t *testing.T) {
	g := buildCompileDiffGraph(10, 30, 5)
	const src = `CREATE QUERY Q() {
	  X = SELECT s FROM N:s WHERE s.score > 0;
	  Y = SELECT t FROM N:s -(E>)- N:t WHERE X.size() > 2;
	}`
	for _, disable := range []bool{false, true} {
		e := New(g, Options{DisableAccumCompile: disable})
		if err := e.Install(src); err != nil {
			t.Fatal(err)
		}
		root := trace.New("run")
		if _, err := e.RunCtx(trace.NewContext(context.Background(), root), "Q", nil); err != nil {
			t.Fatal(err)
		}
		root.End()
		wheres := root.FindAll("where")
		if len(wheres) != 2 {
			t.Fatalf("disable=%v: %d where spans, want 2", disable, len(wheres))
		}
		for i, want := range []bool{!disable, false} {
			if got, _ := wheres[i].Attr("compiled"); got != want {
				t.Errorf("disable=%v: where %d compiled=%v, want %v", disable, i, got, want)
			}
		}
	}
}

// TestUnboxedMissesCounted checks the degraded-path counter: typed
// reads of a MaxAccum<float> that holds ints miss, re-run boxed (with
// results still bit-identical) and are counted at every worker count.
func TestUnboxedMissesCounted(t *testing.T) {
	var src string
	for _, tc := range compileDiffCorpus {
		if tc.name == "pagerank_max_float_holding_int" {
			src = tc.src
		}
	}
	g := buildCompileDiffGraph(12, 40, 3)
	for _, w := range []int{1, 2, 8} {
		cRes, iRes, cErr, iErr := runCompileDiff(t, g, src, w)
		if cErr != nil || iErr != nil {
			t.Fatalf("workers %d: compiled=%v interpreted=%v", w, cErr, iErr)
		}
		if cs, is := compileDiffSig(cRes), compileDiffSig(iRes); cs != is {
			t.Fatalf("workers %d: results diverged\ncompiled:\n%s\ninterpreted:\n%s", w, cs, is)
		}
		if cRes.Stats.AccumUnboxedMisses == 0 {
			t.Fatalf("workers %d: no unboxed misses counted", w)
		}
	}
}

// TestPageRankTypedRungMatchesInterpreter runs the shipped PageRank
// shapes — the benchmark's on SF 0.3 LDBC and the algo package's on a
// link graph — compiled and interpreted: the outputs must be
// byte-identical and the typed rung must never fall back.
func TestPageRankTypedRungMatchesInterpreter(t *testing.T) {
	bench, err := os.ReadFile("../../benchmark/pagerank.gsql")
	if err != nil {
		t.Fatal(err)
	}
	args := map[string]value.Value{
		"maxChange":     value.NewFloat(0.001),
		"maxIteration":  value.NewInt(30),
		"dampingFactor": value.NewFloat(0.85),
	}
	for _, tc := range []struct {
		name, src string
		g         *graph.Graph
	}{
		{"benchmark", string(bench), ldbc.Generate(ldbc.Config{SF: 0.3, Seed: 7})},
		{"algo", algo.PageRankSource("Page", "LinkTo"), graph.BuildLinkGraph(300, 6, 7)},
	} {
		var sigs [2]string
		for i, disable := range []bool{false, true} {
			e := New(tc.g, Options{Workers: 2, DisableAccumCompile: disable})
			if err := e.Install(tc.src); err != nil {
				t.Fatal(err)
			}
			res, err := e.Run("PageRank", args)
			if err != nil {
				t.Fatalf("%s (disable=%v): %v", tc.name, disable, err)
			}
			if res.Stats.AccumUnboxedMisses != 0 {
				t.Errorf("%s (disable=%v): %d unboxed misses", tc.name, disable, res.Stats.AccumUnboxedMisses)
			}
			sigs[i] = compileDiffSig(res)
		}
		if sigs[0] != sigs[1] {
			t.Errorf("%s: compiled and interpreted PageRank differ\ncompiled:\n%s\ninterpreted:\n%s", tc.name, sigs[0], sigs[1])
		}
	}
}
