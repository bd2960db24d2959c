package main

import (
	"strings"
	"testing"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

func TestBuiltinGraph(t *testing.T) {
	cases := []struct {
		spec  string
		verts int
		ok    bool
	}{
		{"diamond:5", 16, true},
		{"g1", 12, true},
		{"g2", 6, true},
		{"sales", 80, true},
		{"linkgraph:10", 10, true},
		{"snb:0.05", 0, true}, // count varies; just loads
		{"diamond:x", 0, false},
		{"diamond:-1", 0, false},
		{"linkgraph:", 0, false},
		{"snb:abc", 0, false},
		{"marsgraph", 0, false},
	}
	for _, c := range cases {
		g, err := builtinGraph(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("builtinGraph(%q): err=%v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if err == nil && c.verts > 0 && g.NumVertices() != c.verts {
			t.Errorf("builtinGraph(%q) vertices = %d, want %d", c.spec, g.NumVertices(), c.verts)
		}
	}
}

func TestParseSemanticsFlag(t *testing.T) {
	for in, want := range map[string]match.Semantics{
		"asp": match.AllShortestPaths, "NRE": match.NonRepeatedEdge,
		"nrv": match.NonRepeatedVertex, "exists": match.ShortestExists,
	} {
		got, err := parseSemantics(in)
		if err != nil || got != want {
			t.Errorf("parseSemantics(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSemantics("bogus"); err == nil {
		t.Error("bad semantics must error")
	}
}

func TestParseArgValues(t *testing.T) {
	g := graph.BuildDiamondChain(2)
	cases := []struct {
		raw  string
		want value.Value
	}{
		{"int:5", value.NewInt(5)},
		{"float:1.5", value.NewFloat(1.5)},
		{"string:5", value.NewString("5")},
		{"bool:true", value.NewBool(true)},
		{"42", value.NewInt(42)},
		{"4.5", value.NewFloat(4.5)},
		{"hello", value.NewString("hello")},
	}
	for _, c := range cases {
		got, err := parseArgValue(g, c.raw)
		if err != nil || !value.Equal(got, c.want) {
			t.Errorf("parseArgValue(%q) = %v, %v; want %v", c.raw, got, err, c.want)
		}
	}
	// Datetime forms.
	if v, err := parseArgValue(g, "datetime:2020-01-02"); err != nil || v.Kind() != value.KindDatetime {
		t.Errorf("datetime arg: %v %v", v, err)
	}
	if v, err := parseArgValue(g, "2020-01-02"); err != nil || v.Kind() != value.KindDatetime {
		t.Errorf("inferred datetime arg: %v %v", v, err)
	}
	// Vertex resolution.
	v0, _ := g.VertexByKey("V", "v0")
	if v, err := parseArgValue(g, "vertex:V:v0"); err != nil || v.VertexID() != int64(v0) {
		t.Errorf("vertex arg: %v %v", v, err)
	}
	for _, bad := range []string{"int:x", "float:x", "bool:x", "datetime:junkstring", "vertex:V", "vertex:V:nope"} {
		if _, err := parseArgValue(g, bad); err == nil {
			t.Errorf("parseArgValue(%q) must error", bad)
		}
	}
	// Full arg lists.
	args, err := parseArgs(g, argList{"a=1", "b=string:x"})
	if err != nil || len(args) != 2 || args["a"].Int() != 1 {
		t.Errorf("parseArgs: %v %v", args, err)
	}
	if _, err := parseArgs(g, argList{"noequals"}); err == nil {
		t.Error("malformed arg must error")
	}
}

func TestLoadGraphValidation(t *testing.T) {
	if _, err := loadGraph("", ""); err == nil {
		t.Error("missing both sources must error")
	}
	if _, err := loadGraph("x", "y"); err == nil {
		t.Error("both sources must error")
	}
	if _, err := loadGraph("/nonexistent-dir-xyz", ""); err == nil {
		t.Error("missing data dir must error")
	}
}

// TestFprintResultGolden pins the exact result rendering: PRINT items
// in order, INTO tables and global accumulators sorted by name, so
// repeated runs print byte-identical output.
func TestFprintResultGolden(t *testing.T) {
	e := core.New(graph.BuildG1(), core.Options{})
	res, err := e.InstallAndRun(`CREATE QUERY Golden() {
  SumAccum<int> @@zeta;
  MaxAccum<int> @@alpha;
  SetAccum<string> @@mid;
  ListAccum<int> @@beta;
  SumAccum<int> @in;
  S = SELECT t FROM V:s -(E>)- V:t WHERE t.name == "4"
      ACCUM t.@in += 1, @@zeta += 1, @@mid += s.name;
  @@alpha += 7;
  @@beta += 2;
  SELECT t.name AS name, t.@in AS indeg INTO Top FROM S:t;
  PRINT @@zeta, size(@@mid);
  RETURN S;
}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fprintResult(&b, res)
	want := strings.Join([]string{
		"== PRINT @@zeta ==",
		"@@zeta",
		"3",
		"",
		"== PRINT size ==",
		"size",
		"3",
		"",
		"== TABLE Top ==",
		"name\tindeg",
		"4\t3",
		"",
		"== RETURN ==",
		"S",
		"4",
		"",
		"== GLOBAL ACCUMULATORS ==",
		"@@alpha = 7",
		"@@beta = [2]",
		"@@mid = {12, 3, 6}",
		"@@zeta = 3",
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Errorf("fprintResult mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
