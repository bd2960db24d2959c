package gsqlgo

// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure. Absolute numbers differ from the paper (their
// testbed was TigerGraph/Neo4j on dedicated hardware); the shapes are
// what reproduce:
//
//   - BenchmarkTable1*: ASP counting stays ~flat in n while the
//     enumeration engines double per added diamond (Table 1 + the
//     sub-10ms TigerGraph claim).
//   - BenchmarkSNBIC*: the IC family under ASP barely grows with the
//     KNOWS hop bound; under NRE it grows by roughly the average
//     degree per added hop (Section 7.1's large-scale table).
//   - BenchmarkAppendixB*: Qacc beats Qgs by a factor in the 2–3×
//     range across scale factors (Appendix B's table).
//   - BenchmarkSDMC: Theorem 6.1 scaling — counting time linear in
//     graph size despite exponential path counts.
//   - BenchmarkMultiplicityShortcut: Appendix A ablation — replicated
//     acc-executions vs one multiplicity-adjusted execution.
//
// cmd/benchtables prints the same data formatted like the paper's
// tables.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gsqlgo/internal/core"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/load"
	"gsqlgo/internal/match"
	"gsqlgo/internal/server"
	"gsqlgo/internal/value"
)

// ---- Table 1 (Section 7.1): diamond-chain Q_n --------------------------------

const benchDiamondMax = 20

func diamondEndpoints(b *testing.B, g *graph.Graph, n int) (graph.VID, graph.VID) {
	b.Helper()
	v0, ok := g.VertexByKey("V", "v0")
	if !ok {
		b.Fatal("v0 missing")
	}
	vn, ok := g.VertexByKey("V", fmt.Sprintf("v%d", n))
	if !ok {
		b.Fatalf("v%d missing", n)
	}
	return v0, vn
}

// BenchmarkTable1ASPCount is the TigerGraph column: polynomial
// counting, flat in n.
func BenchmarkTable1ASPCount(b *testing.B) {
	g := graph.BuildDiamondChain(benchDiamondMax)
	d := darpe.MustCompile("E>*")
	for _, n := range []int{4, 8, 12, 16, 20} {
		v0, vn := diamondEndpoints(b, g, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, mult, ok, err := match.CountASPPair(g, d, v0, vn); err != nil || !ok || mult != 1<<uint(n) {
					b.Fatalf("count %d err %v", mult, err)
				}
			}
		})
	}
}

// BenchmarkTable1NREEnum is the Neo4j-default column: non-repeated-
// edge enumeration, doubling per +1 n.
func BenchmarkTable1NREEnum(b *testing.B) {
	g := graph.BuildDiamondChain(benchDiamondMax)
	d := darpe.MustCompile("E>*")
	for _, n := range []int{4, 8, 12, 16, 20} {
		v0, vn := diamondEndpoints(b, g, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mult, err := match.CountEnumPair(g, d, v0, vn, match.NonRepeatedEdge, match.EnumLimits{MaxSteps: 1 << 62})
				if err != nil || mult != 1<<uint(n) {
					b.Fatalf("count %d err %v", mult, err)
				}
			}
		})
	}
}

// BenchmarkTable1ASPMaterialized is the Neo4j-allShortestPaths column:
// all shortest paths materialized, the fastest-growing curve.
func BenchmarkTable1ASPMaterialized(b *testing.B) {
	g := graph.BuildDiamondChain(benchDiamondMax)
	d := darpe.MustCompile("E>*")
	for _, n := range []int{4, 8, 12, 16, 20} {
		v0, vn := diamondEndpoints(b, g, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, mult, err := match.CountASPMaterializedPair(g, d, v0, vn, match.EnumLimits{MaxSteps: 1 << 62})
				if err != nil || mult != 1<<uint(n) {
					b.Fatalf("count %d err %v", mult, err)
				}
			}
		})
	}
}

// BenchmarkTable1FullQn runs the paper's actual GSQL Q_n through the
// engine under all-shortest-paths (the "all queries completed within
// 10 ms" companion claim).
func BenchmarkTable1FullQn(b *testing.B) {
	g := graph.BuildDiamondChain(30)
	e := core.New(g, core.Options{})
	if err := e.Install(qnBenchSrc); err != nil {
		b.Fatal(err)
	}
	args := map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString("v30"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run("Qn", args)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Printed[0].Rows[0][1].Int(); got != 1<<30 {
			b.Fatalf("count %d", got)
		}
	}
}

const qnBenchSrc = `
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
`

// ---- Section 7.1: SNB IC queries under both semantics -------------------------

// BenchmarkSNBIC sweeps the IC family over hop counts and semantics on
// a fixed SNB-like graph.
func BenchmarkSNBIC(b *testing.B) {
	g := ldbc.Generate(ldbc.Config{SF: 0.5, Seed: 7})
	p, ok := g.VertexByKey("Person", "person0")
	if !ok {
		b.Fatal("person0 missing")
	}
	for _, sem := range []struct {
		name string
		s    match.Semantics
	}{
		{"asp", match.AllShortestPaths},
		{"nre", match.NonRepeatedEdge},
	} {
		for _, short := range []string{"ic3", "ic5", "ic6", "ic9", "ic11"} {
			for _, h := range []int{2, 3, 4} {
				e := core.New(g, core.Options{Semantics: sem.s, EnumLimits: match.EnumLimits{MaxSteps: 1 << 62}})
				if err := e.Install(ldbc.ICQueries(h)[short]); err != nil {
					b.Fatal(err)
				}
				args := snbArgs(short, p)
				b.Run(fmt.Sprintf("%s/%s/hops=%d", short, sem.name, h), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := e.Run(ldbc.ICName(short, h), args); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkQacc times one Qacc run as the benchmark's analytic
// workload issues it (SF 0.3, the same date window, two workers): the
// SELECT block plus the PRINT size(...) tail that follows it.
func BenchmarkQacc(b *testing.B) {
	g := ldbc.Generate(ldbc.Config{SF: 0.3, Seed: 7})
	e := core.New(g, core.Options{Workers: 2})
	if err := e.Install(ldbc.QACC()); err != nil {
		b.Fatal(err)
	}
	args := map[string]value.Value{
		"lo": value.NewDatetime(1230768000), // 2009-01-01
		"hi": value.NewDatetime(1356998400), // 2013-01-01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("Qacc", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRank times one run of the benchmark's PageRank
// (benchmark/pagerank.gsql: Figure 4 over Person-Knows) with the
// analytic workload's arguments on SF 0.3 and two workers: the WHILE
// loop of ACCUM / POST-ACCUM iterations plus the top-20 output block.
func BenchmarkPageRank(b *testing.B) {
	src, err := os.ReadFile("benchmark/pagerank.gsql")
	if err != nil {
		b.Fatal(err)
	}
	g := ldbc.Generate(ldbc.Config{SF: 0.3, Seed: 7})
	e := core.New(g, core.Options{Workers: 2})
	if err := e.Install(string(src)); err != nil {
		b.Fatal(err)
	}
	args := map[string]value.Value{
		"maxChange":     value.NewFloat(0.001),
		"maxIteration":  value.NewInt(30),
		"dampingFactor": value.NewFloat(0.85),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("PageRank", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathsAll times one run of the benchmark's PathsAll
// (benchmark/pathsall.gsql: all-pairs shortest-path counting over
// Knows, one SDMC run per Person) on SF 0.3 and two workers, with the
// count cache off as on the analytic workload's cold cache.
func BenchmarkPathsAll(b *testing.B) {
	src, err := os.ReadFile("benchmark/pathsall.gsql")
	if err != nil {
		b.Fatal(err)
	}
	g := ldbc.Generate(ldbc.Config{SF: 0.3, Seed: 7})
	e := core.New(g, core.Options{Workers: 2, CountCacheSize: -1})
	if err := e.Install(string(src)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run("PathsAll", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkICReads times one IC read as the ic-read workload issues
// it: the five IC queries at h = 2 on SF 0.3 and two workers, cycling
// over load.NewWorkload's read stream, each request a JSON run body
// served in-process by the server's handler (parameter decode, run,
// render). Every request is sent once before timing, so the count
// cache is warm.
func BenchmarkICReads(b *testing.B) {
	const hops, nReads = 2, 1500
	cfg := ldbc.Config{SF: 0.3, Seed: 7}
	e := core.New(ldbc.Generate(cfg), core.Options{Workers: 2})
	w, err := load.NewWorkload(cfg, 7, hops, nil, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for _, src := range w.InstallSources() {
		if err := e.Install(src); err != nil {
			b.Fatal(err)
		}
	}
	s := server.New(server.Config{Engine: e, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	type read struct{ path, body string }
	reads := make([]read, nReads)
	for i := range reads {
		name, params := w.Read(uint64(i))
		body, err := json.Marshal(map[string]any{"params": params})
		if err != nil {
			b.Fatal(err)
		}
		reads[i] = read{"/queries/" + name + "/run", string(body)}
	}
	serve := func(r read) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", r.path, strings.NewReader(r.body)))
		if rec.Code != 200 {
			b.Fatalf("%s: %d %s", r.path, rec.Code, rec.Body)
		}
	}
	for _, r := range reads {
		serve(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(reads[i%nReads])
	}
}

func snbArgs(short string, p graph.VID) map[string]value.Value {
	pv := value.NewVertex(int64(p))
	k := value.NewInt(20)
	switch short {
	case "ic3":
		return map[string]value.Value{"p": pv, "countryX": value.NewString("Country-1"), "countryY": value.NewString("Country-2"), "k": k}
	case "ic5":
		return map[string]value.Value{"p": pv, "minDate": graph.MustDatetime("2010-06-01"), "k": k}
	case "ic6":
		return map[string]value.Value{"p": pv, "tagName": value.NewString("Tag-3"), "k": k}
	case "ic9":
		return map[string]value.Value{"p": pv, "maxDate": graph.MustDatetime("2012-06-01"), "k": k}
	default: // ic11
		return map[string]value.Value{"p": pv, "countryName": value.NewString("Country-0"), "maxYear": value.NewInt(2010), "k": k}
	}
}

// ---- Appendix B: Qgs vs Qacc ----------------------------------------------------

// BenchmarkAppendixB times the GROUPING-SET-style and the
// accumulator-style multi-aggregation per scale factor; the ratio of
// the two is the paper's speedup column.
func BenchmarkAppendixB(b *testing.B) {
	args := map[string]value.Value{
		"lo": graph.MustDatetime("2010-01-01"),
		"hi": graph.MustDatetime("2012-12-31"),
	}
	for _, sf := range []float64{0.3, 1} {
		g := ldbc.Generate(ldbc.Config{SF: sf, Seed: 7})
		for _, q := range []struct {
			name string
			src  string
		}{
			{"Qgs", ldbc.QGS()},
			{"Qacc", ldbc.QACC()},
		} {
			e := core.New(g, core.Options{})
			if err := e.Install(q.src); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/sf=%.1f", q.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(q.name, args); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Theorem 6.1: SDMC polynomial scaling ---------------------------------------

// BenchmarkSDMC shows single-source counting time growing linearly
// with graph size while the counted paths grow exponentially.
func BenchmarkSDMC(b *testing.B) {
	d := darpe.MustCompile("E>*")
	for _, n := range []int{16, 32, 48, 60} {
		g := graph.BuildDiamondChain(n)
		v0, _ := g.VertexByKey("V", "v0")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := match.CountASPCtx(context.Background(), g, d, v0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSDMCAllPairs exercises the all-paths SDMC flavor (one BFS
// per source, every result kept) on the SNB-like graph with the
// bounded KNOWS pattern: one SourceCounter over all sources, then
// GOMAXPROCS counters pulling sources from an atomic cursor — the
// engine's counted-hop pattern.
func BenchmarkSDMCAllPairs(b *testing.B) {
	g := ldbc.Generate(ldbc.Config{SF: 0.2, Seed: 7})
	d := darpe.MustCompile("Knows*1..3")
	nV := g.NumVertices()
	newCounter := func(b *testing.B) *match.SourceCounter {
		sc, err := match.NewSourceCounter(g, d)
		if err != nil {
			b.Fatal(err)
		}
		return sc
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]*match.Counts, nV)
			sc := newCounter(b)
			for v := range out {
				out[v], _ = sc.Count(graph.VID(v), nil)
			}
			sc.Close()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]*match.Counts, nV)
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < runtime.GOMAXPROCS(0); w++ {
				sc := newCounter(b)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer sc.Close()
					for v := cursor.Add(1) - 1; v < int64(nV); v = cursor.Add(1) - 1 {
						out[v], _ = sc.Count(graph.VID(v), nil)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// ---- Appendix A: multiplicity-shortcut ablation -----------------------------------

// BenchmarkMultiplicityShortcut compares the compressed binding table
// (one multiplicity-adjusted acc-execution) against μ replicated
// executions: at n diamonds the replicated variant runs the ACCUM
// clause 2^n times.
func BenchmarkMultiplicityShortcut(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		g := graph.BuildDiamondChain(n)
		args := map[string]value.Value{
			"srcName": value.NewString("v0"),
			"tgtName": value.NewString(fmt.Sprintf("v%d", n)),
		}
		for _, mode := range []struct {
			name string
			off  bool
		}{
			{"shortcut", false},
			{"replicated", true},
		} {
			e := core.New(g, core.Options{NoMultiplicityShortcut: mode.off})
			if err := e.Install(qnBenchSrc); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.Run("Qn", args); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Parallel ACCUM reduce ---------------------------------------------------------

// BenchmarkParallelAccum measures the snapshot-semantics map/reduce
// with 1 worker vs GOMAXPROCS workers (the parallelization claim of
// Section 4.3).
func BenchmarkParallelAccum(b *testing.B) {
	g := graph.BuildSalesGraph(graph.SalesGraphConfig{
		Customers: 2000, Products: 500, Sales: 200000, Likes: 1000, Seed: 1,
	})
	src := `
CREATE QUERY Revenue() {
  SumAccum<float> @@total;
  SumAccum<float> @perCust;
  S = SELECT c
      FROM Customer:c -(Bought>:e)- Product:p
      ACCUM float sp = e.quantity * p.listPrice * (1.0 - e.discount),
            c.@perCust += sp,
            @@total += sp;
}
`
	for _, workers := range []int{1, 0} {
		e := core.New(g, core.Options{Workers: workers})
		if err := e.Install(src); err != nil {
			b.Fatal(err)
		}
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run("Revenue", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Parallel pattern expansion + count cache --------------------------------

// BenchmarkExpandPipeline measures the counted-hop expansion pipeline
// on an LDBC SNB graph three ways: serial sharding baseline, parallel
// shards with the cache disabled, and warm engine-level count cache
// (zero SDMC runs per iteration).
func BenchmarkExpandPipeline(b *testing.B) {
	g := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 7})
	src := `
CREATE QUERY FriendReach() {
  SumAccum<int> @@pairs;
  R = SELECT t FROM Person:p -(Knows*1..3)- Person:t WHERE t <> p ACCUM @@pairs += 1;
  RETURN @@pairs;
}
`
	cases := []struct {
		name string
		opts core.Options
		warm bool
	}{
		{"serial", core.Options{Workers: 1, CountCacheSize: -1}, false},
		{"parallel", core.Options{CountCacheSize: -1}, false},
		{"warmcache", core.Options{}, true},
	}
	for _, c := range cases {
		e := core.New(g, c.opts)
		if err := e.Install(src); err != nil {
			b.Fatal(err)
		}
		if c.warm {
			res, err := e.Run("FriendReach", nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.SDMCRuns == 0 {
				b.Fatal("prime run did no SDMC work")
			}
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run("FriendReach", nil)
				if err != nil {
					b.Fatal(err)
				}
				if c.warm && res.Stats.SDMCRuns != 0 {
					b.Fatalf("warm iteration ran %d SDMC counts", res.Stats.SDMCRuns)
				}
			}
		})
	}
}
