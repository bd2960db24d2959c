package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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
}

// compileDiffArgs supplies each corpus query's declared parameters by
// name.
var compileDiffArgs = map[string]value.Value{
	"lo": value.NewInt(0),
	"hi": value.NewFloat(10),
	"nm": value.NewString("n1"),
	"a":  value.NewInt(1),
	"b":  value.NewInt(2),
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
				if iRes.Stats.AccumCompiledStmts != 0 {
					t.Fatalf("%s: disabled engine reported compiled statements", tc.name)
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
