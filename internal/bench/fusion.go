package bench

import (
	"io"
	"math/rand"
	"strconv"
	"testing"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/value"
)

// fusionGraph builds a random digraph whose vertex and edge
// attributes carry the int/float columns the kernels fold. The kernel
// pair uses a dense 500x40 instance (one single-edge hop = ~20k
// binding rows, ACCUM-dominated); the fusion trio uses a smaller
// instance whose counted-hop traversal is the dominant cost — the
// Qacc shape fusion amortizes.
func fusionGraph(nVerts, outDeg int) *graph.Graph {
	s := graph.NewSchema()
	if _, err := s.AddVertexType("N",
		graph.AttrDef{Name: "name", Type: graph.AttrString},
		graph.AttrDef{Name: "score", Type: graph.AttrInt},
		graph.AttrDef{Name: "weight", Type: graph.AttrFloat},
	); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("E", true, graph.AttrDef{Name: "w", Type: graph.AttrInt}); err != nil {
		panic(err)
	}
	g := graph.New(s)
	r := rand.New(rand.NewSource(11))
	ids := make([]graph.VID, nVerts)
	for i := range ids {
		v, err := g.AddVertex("N", strconv.Itoa(i), map[string]value.Value{
			"name":   value.NewString("n" + strconv.Itoa(i)),
			"score":  value.NewInt(int64(r.Intn(100))),
			"weight": value.NewFloat(float64(r.Intn(400)) / 8),
		})
		if err != nil {
			panic(err)
		}
		ids[i] = v
	}
	for _, src := range ids {
		for d := 0; d < outDeg; d++ {
			dst := ids[r.Intn(nVerts)]
			if dst == src {
				continue
			}
			if _, err := g.AddEdge("E", src, dst, map[string]value.Value{
				"w": value.NewInt(int64(r.Intn(10))),
			}); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// fusionQueries: KernelQ prices per-row statement dispatch (four
// scalar-accumulator statements with attribute reads and arithmetic in
// one block); OneAcc / FourAcc price the fusion contract — FourAcc is
// four SELECT blocks over the identical traversal, which the planner
// collapses into one expansion feeding one fused kernel pass.
const fusionQueries = `
CREATE QUERY KernelQ() {
  SumAccum<int> @@a;
  SumAccum<float> @@b;
  MaxAccum<int> @@c;
  MinAccum<float> @@d;
  R = SELECT t FROM N:s -(E>)- N:t
      ACCUM @@a += s.score + t.score, @@b += t.weight * 0.5,
            @@c += t.score, @@d += s.weight + t.weight;
}
CREATE QUERY OneAcc() {
  SumAccum<int> @@a;
  A = SELECT t FROM N:s -(E>*1..3)- N:t ACCUM @@a += s.score;
}
CREATE QUERY FourAcc() {
  SumAccum<int> @@a;
  SumAccum<float> @@b;
  MaxAccum<int> @@c;
  MinAccum<float> @@d;
  A = SELECT t FROM N:s -(E>*1..3)- N:t ACCUM @@a += s.score;
  B = SELECT t FROM N:s -(E>*1..3)- N:t ACCUM @@b += t.weight;
  C = SELECT t FROM N:s -(E>*1..3)- N:t ACCUM @@c += t.score;
  D = SELECT t FROM N:s -(E>*1..3)- N:t ACCUM @@d += s.weight;
}
`

func fusionEngine(g *graph.Graph, opts core.Options) *core.Engine {
	eng := core.New(g, opts)
	if err := eng.Install(fusionQueries); err != nil {
		panic(err)
	}
	return eng
}

// fusionSuite benchmarks the compiled-kernel tentpole. The headline
// pairs: Fusion/kernel/compiled vs Fusion/kernel/interpreted (same
// query, same engine shape, interpreter forced by option — acceptance
// >=1.5x), and Fusion/block/4acc_fused vs Fusion/block/1acc (four
// accumulators over one traversal must cost <=1.5x a single one —
// acceptance). Fusion/block/4acc_interpreted shows the unfused,
// interpreted cost of the same four blocks for scale. All cases report
// allocations so the recycled kernel scratch (bind frames and vertex
// delta slabs) shows up as the compiled-vs-interpreted allocs_per_op
// delta.
func fusionSuite() []benchCase {
	// Kernel pair: dense graph, statement dispatch dominates. Fusion
	// trio: counted-hop traversal with the count cache off, so every
	// run pays the real SDMC traversal the fused group shares.
	kg := fusionGraph(500, 40)
	fg := fusionGraph(200, 10)
	kCompiled := fusionEngine(kg, core.Options{})
	kInterp := fusionEngine(kg, core.Options{DisableAccumCompile: true})
	fCompiled := fusionEngine(fg, core.Options{CountCacheSize: -1})
	fInterp := fusionEngine(fg, core.Options{CountCacheSize: -1, DisableAccumCompile: true})
	runCase := func(eng *core.Engine, query string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(query, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []benchCase{
		{"Fusion/kernel/compiled", runCase(kCompiled, "KernelQ")},
		{"Fusion/kernel/interpreted", runCase(kInterp, "KernelQ")},
		{"Fusion/block/1acc", runCase(fCompiled, "OneAcc")},
		{"Fusion/block/4acc_fused", runCase(fCompiled, "FourAcc")},
		{"Fusion/block/4acc_interpreted", runCase(fInterp, "FourAcc")},
	}
}

// WriteFusionJSON runs the compiled-kernel / fusion benchmark suite
// and writes the stamped Report to w (cmd/benchtables -json -suite
// fusion, conventionally BENCH_fusion.json).
func WriteFusionJSON(meta RunMeta, w, progress io.Writer) error {
	meta.Notes = "Baselines: Fusion/kernel/interpreted is the tree-walking ACCUM loop " +
		"on the identical engine and graph (compilation disabled by option), and " +
		"Fusion/block/1acc is one single-accumulator block over the shared traversal. " +
		"Acceptance: Fusion/kernel/compiled >=1.5x faster than Fusion/kernel/interpreted; " +
		"Fusion/block/4acc_fused (four blocks, one fused pass) <=1.5x the cost of " +
		"Fusion/block/1acc. allocs_per_op: the recycled kernel scratch (bind frames, " +
		"vertex delta slabs) holds the compiled path at the traversal's own allocation " +
		"footprint (kernel pair near-identical); fusion's alloc win is " +
		"Fusion/block/4acc_fused (one traversal) vs 4acc_interpreted (four)."
	return writeSuiteJSON(fusionSuite(), meta, w, progress)
}
