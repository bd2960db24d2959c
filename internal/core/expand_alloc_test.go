package core

import (
	"context"
	"errors"
	"runtime/debug"
	"strconv"
	"testing"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/value"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// warmBuild installs qsrc on g and returns a runState plus a closure
// that builds the query's last FROM clause, after one warm-up build
// (count cache filled, hit buffers pooled).
func warmBuild(t *testing.T, g *graph.Graph, qsrc string, args map[string]value.Value) (*runState, func() *bindingTable) {
	t.Helper()
	e := New(g, Options{Workers: 2})
	if err := e.Install(qsrc); err != nil {
		t.Fatal(err)
	}
	q := e.queries["Q"]
	rs, err := newRunState(e, e.Graph().Snapshot(), q, e.plans["Q"], args)
	if err != nil {
		t.Fatal(err)
	}
	_, from := lastSelect(t, q)
	build := func() *bindingTable {
		bt, err := rs.buildBindings(from, nil)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	build()
	return rs, build
}

// TestHopAllocsFlatInRows pins the two-pass builder's allocation shape:
// a warm hop allocates a fixed number of objects (table, arenas, shard
// bookkeeping), not one per output row, so an 8× larger table costs no
// more allocations. The collector is off while counting: each GC makes
// sync.Pool rebuild its per-P lists, and larger tables would pay for
// more collections, not for more rows.
func TestHopAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	shapes := []struct {
		name string
		src  string
		// graph builds a graph whose table has about rows output rows.
		graph func(rows int) *graph.Graph
		args  map[string]value.Value
	}{
		{
			name: "single",
			src: `CREATE QUERY Q() {
			  R = SELECT t FROM V:s -(_:e)- V:t;
			  PRINT R;
			}`,
			// Every edge is two half-edges the wildcard walks.
			graph: func(rows int) *graph.Graph { return graph.BuildRandomMixedGraph(rows/4, rows/2, 1) },
		},
		{
			name: "counted",
			src: `CREATE QUERY Q(vertex<V> p) {
			  R = SELECT t FROM V:p -(_*)- V:t;
			  PRINT R;
			}`,
			// One source reaching most of a graph of average degree 6.
			graph: func(rows int) *graph.Graph { return graph.BuildRandomMixedGraph(rows, 3*rows, 1) },
			args:  map[string]value.Value{"p": value.NewVertex(0)},
		},
	}
	for _, sh := range shapes {
		var allocs [2]float64
		var rows [2]int
		for i, n := range []int{1000, 8000} {
			_, build := warmBuild(t, sh.graph(n), sh.src, sh.args)
			rows[i] = len(build().rows)
			allocs[i] = testing.AllocsPerRun(20, func() { build() })
		}
		t.Logf("%s: %d rows → %.0f allocs, %d rows → %.0f allocs", sh.name, rows[0], allocs[0], rows[1], allocs[1])
		if rows[1] < 6*rows[0] || rows[0] < 800 {
			t.Fatalf("%s: tables of %d and %d rows do not span the intended sizes", sh.name, rows[0], rows[1])
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%s: allocations grew with the table: %.0f at %d rows, %.0f at %d rows",
				sh.name, allocs[0], rows[0], allocs[1], rows[1])
		}
	}
}

// TestHitBuffersReturnReset cancels an expansion after every shard has
// recorded hits, then checks the next build is byte-identical to one
// before it: the pooled hit buffers went back empty.
func TestHitBuffersReturnReset(t *testing.T) {
	g := graph.BuildRandomMixedGraph(300, 1200, 5)
	rs, build := warmBuild(t, g, `CREATE QUERY Q() {
	  R = SELECT t FROM V:s -(D1>:e)- V:t;
	  PRINT R;
	}`, nil)
	want := bindingSig(build())
	rows := build().rows
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		rs.ctx, rs.done = ctx, ctx.Done()
		_, err := rs.buildHopRows(rows, hopLayout{}, nil, func(lo, hi int, hits *[]hit) error {
			for ri := lo; ri < hi; ri++ {
				*hits = append(*hits, hit{row: int32(ri), to: rows[ri].verts[0]})
			}
			return rs.checkCancel()
		})
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
		rs.ctx, rs.done = context.Background(), nil
		if got := bindingSig(build()); got != want {
			t.Fatalf("build after a cancelled expansion diverged:\nbefore:\n%s\nafter:\n%s", want, got)
		}
	}
}

// hubGraph builds n spoke vertices around four hubs: each spoke has a
// D1 edge into one hub and a D2 edge out of one, so joining the two
// hops on the hub yields about n²/4 rows from an n-row right side
// hashed on four keys.
func hubGraph(n int) *graph.Graph {
	g := graph.BuildRandomMixedGraph(0, 0, 1)
	for i := 0; i < n+4; i++ {
		if _, err := g.AddVertex("V", strconv.Itoa(i), nil); err != nil {
			panic(err)
		}
	}
	for i := 4; i < n+4; i++ {
		if _, err := g.AddEdge("D1", graph.VID(i), graph.VID(i%4), nil); err != nil {
			panic(err)
		}
		if _, err := g.AddEdge("D2", graph.VID((i/4)%4), graph.VID(i), nil); err != nil {
			panic(err)
		}
	}
	return g
}

// TestJoinAllocsFlatInRows is TestHopAllocsFlatInRows for the join of
// two path conjuncts: the joined table is one row array plus one arena
// per column kind, so an 8× larger output costs no more allocations.
func TestJoinAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const src = `CREATE QUERY Q() {
	  R = SELECT t FROM V:s -(D1>:e)- V:h, V:h -(D2>:f)- V:t;
	  PRINT R;
	}`
	var allocs [2]float64
	var rows [2]int
	for i, n := range []int{64, 184} {
		_, build := warmBuild(t, hubGraph(n), src, nil)
		rows[i] = len(build().rows)
		allocs[i] = testing.AllocsPerRun(20, func() { build() })
	}
	t.Logf("%d rows → %.0f allocs, %d rows → %.0f allocs", rows[0], allocs[0], rows[1], allocs[1])
	if rows[1] < 6*rows[0] || rows[0] < 800 {
		t.Fatalf("tables of %d and %d rows do not span the intended sizes", rows[0], rows[1])
	}
	if allocs[1] > allocs[0] {
		t.Errorf("allocations grew with the joined table: %.0f at %d rows, %.0f at %d rows",
			allocs[0], rows[0], allocs[1], rows[1])
	}
}
