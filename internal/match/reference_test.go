package match

import (
	"slices"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// countASPReference is the pre-CSR single-source SDMC counter: a
// layered BFS over the implicit (vertex, DFA state) product graph that
// walks the mutable [][]HalfEdge adjacency and allocates its dist/cnt
// arrays per call. It is kept verbatim as the oracle of the
// differential tests, which assert the zero-allocation CSR kernel
// returns bit-identical Dist/Mult/Reached/Saturated on every fixture.
//
// Saturating addition makes the result order-independent (the
// saturated sum of non-negative terms is min(true sum, MaxMult) under
// any addition order, and the Saturated flag fires iff the true sum
// exceeds MaxMult), so both kernels agree exactly even though they
// expand half-edges in different orders.
func countASPReference(g *graph.Graph, d *darpe.DFA, src graph.VID) *Counts {
	res, _ := countASPReferenceDone(g, d, src, nil)
	return res
}

// countASPReferenceDone is the reference kernel with the same
// cooperative cancellation contract as countASPInto: done (nil =
// never) is polled per BFS layer and every cancelStride frontier
// nodes; a false return means the run aborted.
func countASPReferenceDone(g *graph.Graph, d *darpe.DFA, src graph.VID, done <-chan struct{}) (*Counts, bool) {
	nV := g.NumVertices()
	nQ := d.NumStates()
	res := newCounts(nV)
	if nV == 0 {
		return res, true
	}
	types := typeResolver(g, d)

	dist := make([]int32, nV*nQ)
	for i := range dist {
		dist[i] = -1
	}
	cnt := make([]uint64, nV*nQ)
	node := func(v graph.VID, q int) int { return int(v)*nQ + q }

	start := node(src, d.Start())
	dist[start] = 0
	cnt[start] = 1
	frontier := []int{start}

	// bestDist[t] is fixed the first time an accepting product node
	// lands on t; later layers cannot improve it (BFS monotonicity).
	finish := func(layer []int, layerDist int32) {
		for _, n := range layer {
			q := n % nQ
			if !d.Accepting(q) {
				continue
			}
			t := graph.VID(n / nQ)
			if res.Dist[t] < 0 {
				res.Dist[t] = layerDist
				res.Reached = append(res.Reached, t)
			}
			if res.Dist[t] == layerDist {
				res.satAdd(&res.Mult[t], cnt[n])
			}
		}
	}

	layerDist := int32(0)
	finish(frontier, layerDist)
	for len(frontier) > 0 {
		var next []int
		for i, n := range frontier {
			if done != nil && i%cancelStride == 0 {
				select {
				case <-done:
					return res, false
				default:
				}
			}
			v := graph.VID(n / nQ)
			q := n % nQ
			c := cnt[n]
			for _, h := range g.Neighbors(v) {
				q2 := d.StepIdx(q, types[h.Type], adornOf(h.Dir))
				if q2 < 0 {
					continue
				}
				m := node(h.To, q2)
				if dist[m] < 0 {
					dist[m] = layerDist + 1
					next = append(next, m)
				}
				if dist[m] == layerDist+1 {
					res.satAdd(&cnt[m], c)
				}
			}
		}
		layerDist++
		finish(next, layerDist)
		frontier = next
	}
	slices.Sort(res.Reached)
	return res, true
}
