package core

import (
	"os"
	"strings"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
)

// TestExplainCompiledRendering pins the EXPLAIN lines for compiled
// ACCUM/POST-ACCUM clauses: mode, fast-vs-boxed target split, and
// resolved attribute offsets.
func TestExplainCompiledRendering(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	e := New(g, Options{})
	if err := e.Install(`
CREATE QUERY QC(string nm) {
  SumAccum<int> @@hits;
  MaxAccum<string> @last;
  S = SELECT t FROM V:s -(E>)- V:t
      WHERE s.name == nm
      ACCUM @@hits += 1, t.@last += s.name
      POST-ACCUM t.@last += t.name;
}`); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain("QC")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// @@hits is a fast (unboxed int) target, @last a boxed string
		// one, so one of the two statements runs unboxed; s.name is
		// the single pre-resolved attribute offset.
		"ACCUM 2 statement(s)  [compiled kernel (1 fast / 1 boxed target(s), 1/2 unboxed statement(s), 1 resolved attr offset(s)), snapshot map/reduce, parallel, multiplicity shortcut on]",
		"POST-ACCUM 1 statement(s)  [compiled (0/1 unboxed statement(s), 1 resolved attr offset(s)), once per distinct vertex]",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}

	// With compilation disabled the same plan renders the interpreter.
	e2 := New(g, Options{DisableAccumCompile: true})
	if err := e2.Install(`
CREATE QUERY QC() {
  SumAccum<int> @@hits;
  MaxAccum<int> @last;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM @@hits += 1 POST-ACCUM t.@last += 1;
}`); err != nil {
		t.Fatal(err)
	}
	plan, err = e2.Explain("QC")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "ACCUM 1 statement(s)  [interpreted, snapshot map/reduce") {
		t.Errorf("disabled-compile ACCUM not interpreted:\n%s", plan)
	}
	if !strings.Contains(plan, "POST-ACCUM 1 statement(s)  [interpreted, once per distinct vertex]") {
		t.Errorf("disabled-compile POST-ACCUM not interpreted:\n%s", plan)
	}
}

// TestExplainFusedRendering pins the FUSED group banner for
// consecutive SELECT blocks sharing one traversal.
func TestExplainFusedRendering(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	e := New(g, Options{})
	if err := e.Install(`
CREATE QUERY QF() {
  SumAccum<int> @@a;
  SumAccum<int> @@b;
  SumAccum<int> @@c;
  X = SELECT t FROM V:s -(E>)- V:t ACCUM @@a += 1;
  Y = SELECT t FROM V:s -(E>)- V:t ACCUM @@b += 1, @@c += 2;
}`); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain("QF")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "FUSED: 2 SELECT blocks share one traversal (3 ACCUM statement(s), one pass)") {
		t.Errorf("plan missing fusion banner:\n%s", plan)
	}

	// A clause the compiler declines (dynamic vset-scope size()) keeps
	// the block out of fusion and renders as interpreted.
	if err := e.Install(`
CREATE QUERY QIf() {
  SumAccum<int> @@a;
  SumAccum<int> @@b;
  X = SELECT s FROM V:s;
  Y = SELECT t FROM V:s -(E>)- V:t ACCUM @@a += X.size();
  Z = SELECT t FROM V:s -(E>)- V:t ACCUM @@b += 1;
}`); err != nil {
		t.Fatal(err)
	}
	plan, err = e.Explain("QIf")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "FUSED:") {
		t.Errorf("interpreted block must not fuse:\n%s", plan)
	}
	if !strings.Contains(plan, "ACCUM 1 statement(s)  [interpreted, snapshot map/reduce") {
		t.Errorf("fallback block not rendered interpreted:\n%s", plan)
	}
}

// TestExplainPageRankAllUnboxed pins every PageRank statement on the
// typed rung: Figure 4's shape and the benchmark's (undirected Knows,
// outdegree with a literal edge type).
func TestExplainPageRankAllUnboxed(t *testing.T) {
	bench, err := os.ReadFile("../../benchmark/pagerank.gsql")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, src string
		g         *graph.Graph
	}{
		{"figure4", figure4Src, graph.BuildLinkGraph(20, 3, 1)},
		{"benchmark", string(bench), ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 7})},
	} {
		e := New(tc.g, Options{})
		if err := e.Install(tc.src); err != nil {
			t.Fatal(err)
		}
		plan, err := e.Explain("PageRank")
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"ACCUM 1 statement(s)  [compiled kernel (1 fast / 0 boxed target(s), 1/1 unboxed statement(s), 0 resolved attr offset(s))",
			"POST-ACCUM 3 statement(s)  [compiled (3/3 unboxed statement(s), 0 resolved attr offset(s)), once per distinct vertex]",
		} {
			if !strings.Contains(plan, want) {
				t.Errorf("%s: plan missing %q:\n%s", tc.name, want, plan)
			}
		}
	}
}
