package core

import (
	"context"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// TestSizeOfGlobalAccumulator checks size(@@acc), which the compiled
// path answers from the accumulator's container, against the size of
// the accumulator's materialised value, for every container kind and
// in every statement position: PRINT, a local assignment, IF and WHILE
// conditions, and RETURN. Inputs collide as
// int and int-valued float (1 and 1.0 are one element).
func TestSizeOfGlobalAccumulator(t *testing.T) {
	src := `
TYPEDEF TUPLE<x float, s string> T;
CREATE QUERY Sizes() {
  SetAccum<float> @@set;
  BagAccum<float> @@bag;
  ListAccum<float> @@list;
  MapAccum<float, SumAccum<int>> @@map;
  HeapAccum<T>(3, x DESC) @@heap;
  GroupByAccum<float k, string s, SumAccum<int>> @@gb;
  SumAccum<int> @@branch;
  @@set += 1; @@set += 1.0; @@set += 2.5; @@set += 2;
  @@bag += 1; @@bag += 1.0; @@bag += 3;
  @@list += 1; @@list += 1.0;
  @@map += (1 -> 2); @@map += (1.0 -> 3); @@map += (0.5 -> 1);
  @@heap += (1.0, "a"); @@heap += (2.0, "b"); @@heap += (1.0, "a"); @@heap += (0.5, "c");
  @@gb += (1, "a" -> 1); @@gb += (1.0, "a" -> 1); @@gb += (1, "b" -> 1); @@gb += (2.5, "a" -> 1);
  n = size(@@map);
  IF size(@@gb) == 3 THEN @@branch += 1; END;
  WHILE size(@@list) < 5 DO @@list += 7; END;
  PRINT size(@@set), size(@@bag), size(@@list), n, size(@@heap), size(@@gb), @@branch;
  RETURN size(@@heap);
}`
	e := New(graph.BuildG1(), Options{})
	res, err := e.InstallAndRun(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	valueSize := func(name string) int64 {
		v, ok := res.Global(name)
		if !ok {
			t.Fatalf("no global @@%s", name)
		}
		if v.Kind() == value.KindMap {
			return int64(len(v.Pairs()))
		}
		return int64(len(v.Elems()))
	}
	want := []int64{valueSize("set"), valueSize("bag"), valueSize("list"), valueSize("map"), valueSize("heap"), valueSize("gb"), 1}
	if want[0] != 3 || want[1] != 2 || want[3] != 2 || want[5] != 3 {
		t.Fatalf("collision fixture drifted: value sizes %v", want)
	}
	if len(res.Printed) != len(want) {
		t.Fatalf("printed %d items, want %d", len(res.Printed), len(want))
	}
	for i, w := range want {
		if got := res.Printed[i].Rows[0][0].Int(); got != w {
			t.Errorf("PRINT item %d (%s) = %d, want %d", i, res.Printed[i].Name, got, w)
		}
	}
	if got := res.Returned.Rows[0][0].Int(); got != want[4] {
		t.Errorf("RETURN size(@@heap) = %d, want %d", got, want[4])
	}
}

// TestPrintAndReturnSpans checks that a traced run accounts for its
// tail: each PRINT and RETURN statement gets a span of its own with the
// number of items it evaluates.
func TestPrintAndReturnSpans(t *testing.T) {
	e := New(graph.BuildG1(), Options{})
	if err := e.Install(`CREATE QUERY Q() {
  SetAccum<int> @@s;
  @@s += 1;
  PRINT size(@@s), @@s;
  PRINT @@s;
  RETURN size(@@s);
}`); err != nil {
		t.Fatal(err)
	}
	root := trace.New("run")
	if _, err := e.RunCtx(trace.NewContext(context.Background(), root), "Q", nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	prints := root.FindAll("print")
	if len(prints) != 2 {
		t.Fatalf("%d print spans, want 2", len(prints))
	}
	for i, want := range []int64{2, 1} {
		if got, _ := prints[i].Attr("items"); got != want {
			t.Errorf("print span %d: items=%v, want %d", i, got, want)
		}
	}
	ret := root.FindAll("return")
	if len(ret) != 1 {
		t.Fatalf("%d return spans, want 1", len(ret))
	}
	if got, _ := ret[0].Attr("items"); got != int64(1) {
		t.Errorf("return span: items=%v, want 1", got)
	}
}

// TestPrintSizeAllocsFlat pins the container count of size(@@acc) at
// statement level: PRINT size(@@m) allocates no more for a 10 000-entry
// map than for a 10-entry one, where materialising the map would
// allocate a list per entry.
func TestPrintSizeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	e := New(graph.BuildG1(), Options{})
	if err := e.Install(`CREATE QUERY Q() {
  MapAccum<int, ListAccum<int>> @@m;
  PRINT size(@@m);
}`); err != nil {
		t.Fatal(err)
	}
	q := e.queries["Q"]
	stmt := q.Stmts[0].(*gsql.PrintStmt)
	var allocs [2]float64
	for i, n := range []int{10, 10000} {
		rs, err := newRunState(e, e.Graph().Snapshot(), q, e.plans["Q"], nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if err := rs.globals["m"].Input(value.NewTuple([]value.Value{value.NewInt(int64(j)), value.NewInt(1)}), 1); err != nil {
				t.Fatal(err)
			}
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			rs.res.Printed = rs.res.Printed[:0]
			if err := rs.execPrint(stmt); err != nil {
				t.Fatal(err)
			}
		})
		if got := rs.res.Printed[0].Rows[0][0].Int(); got != int64(n) {
			t.Fatalf("size(@@m) = %d, want %d", got, n)
		}
	}
	if allocs[1] > allocs[0] {
		t.Errorf("PRINT size(@@m) allocations grew with the map: %.0f at 10 entries, %.0f at 10 000", allocs[0], allocs[1])
	}
}
