package match

import (
	"context"
	"fmt"
	"slices"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// cancelStride is how many frontier nodes a BFS expands between polls
// of the done channel: frequent enough that a 1ms deadline stops a
// large-graph run promptly, rare enough to be invisible in the kernel
// profile.
const cancelStride = 2048

// ctxErr wraps the context's cause as this package's cancellation
// error. Callers above (internal/core) re-map it onto their own typed
// taxonomy.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("match: cancelled: %w", context.Cause(ctx))
}

// CountASPCtx solves the single-source SDMC problem (Theorem 6.1):
// for every vertex t it computes the length of the shortest path from
// src to t satisfying the DARPE, and the exact number of such shortest
// paths, in time O(V·Q + E·Q) for a Q-state DFA — polynomial in the
// graph, never materializing paths.
//
// The algorithm is a layered BFS over the implicit product graph whose
// nodes are (vertex, DFA state) pairs. Because the automaton is
// deterministic, each graph path has exactly one product walk, so
// per-layer count propagation counts graph paths exactly; parallel
// edges contribute separately because expansion iterates half-edges,
// not neighbors.
//
// It is one SourceCounter run: the hot loop reads the graph's frozen
// CSR adjacency (freezing it on first use) with a pooled scratch. The
// BFS polls ctx.Done() on a stride and aborts with the context's
// error, so serving-layer deadlines stop kernel work mid-run. A
// product space the kernel cannot address yields ErrProductTooLarge.
func CountASPCtx(ctx context.Context, g *graph.Graph, d *darpe.DFA, src graph.VID) (*Counts, error) {
	// A stack counter, not NewSourceCounter: the one-shot run then
	// allocates no more than the kernel itself.
	var sc SourceCounter
	if err := sc.init(g, d); err != nil {
		return nil, err
	}
	defer sc.Close()
	res, ok := sc.Count(src, ctx.Done())
	if !ok {
		return nil, ctxErr(ctx)
	}
	return res, nil
}

// countASPInto is the zero-allocation SDMC kernel: one single-source
// layered BFS over the (vertex, DFA state) product, reading adjacency
// from the CSR and working entirely in the pooled scratch. Results
// accumulate into res, whose Dist must be -1-filled and Mult zeroed.
//
// The CSR's (Type, Dir) segments let the kernel resolve one DFA
// transition per segment and then stream the segment's half-edges
// without further automaton work; epoch stamps make dist/cnt reuse
// free of O(V·Q) clears between sources.
//
// done (nil = never) is polled every cancelStride frontier nodes; a
// false return means the BFS aborted and res holds partial garbage.
func countASPInto(c *graph.CSR, d *darpe.DFA, types []int, src graph.VID, s *scratch, res *Counts, done <-chan struct{}) bool {
	nQ := d.NumStates()
	hasExt := c.HasExt()
	epoch := s.nextEpoch()
	stamp, dist, cnt := s.stamp, s.dist, s.cnt

	start := int32(int(src)*nQ + d.Start())
	stamp[start] = epoch
	dist[start] = 0
	cnt[start] = 1
	frontier := append(s.frontier[:0], start)
	next := s.next[:0]
	reached := s.reached[:0]

	for layerDist := int32(0); ; layerDist++ {
		// Finish the current layer: the first accepting product node
		// landing on t fixes Dist[t]; later layers cannot improve it
		// (BFS monotonicity), and every accepting node of the fixing
		// layer contributes its count.
		for _, n := range frontier {
			q := int(n) % nQ
			if !d.Accepting(q) {
				continue
			}
			t := graph.VID(int(n) / nQ)
			if res.Dist[t] < 0 {
				res.Dist[t] = layerDist
				reached = append(reached, t)
			}
			if res.Dist[t] == layerDist {
				res.satAdd(&res.Mult[t], cnt[n])
			}
		}
		if len(frontier) == 0 {
			break
		}
		// Expand into the next layer.
		next = next[:0]
		for i, n := range frontier {
			if done != nil && i%cancelStride == 0 {
				select {
				case <-done:
					s.frontier, s.next, s.reached = frontier, next, reached
					return false
				default:
				}
			}
			v := graph.VID(int(n) / nQ)
			q := int(n) % nQ
			c0 := cnt[n]
			for _, sg := range c.Segments(v) {
				q2 := d.StepIdx(q, types[sg.Type], adornOf(sg.Dir))
				if q2 < 0 {
					continue
				}
				for _, h := range c.HalfEdges(sg) {
					m := int32(int(h.To)*nQ + q2)
					if stamp[m] != epoch {
						stamp[m] = epoch
						dist[m] = layerDist + 1
						cnt[m] = c0
						next = append(next, m)
					} else if dist[m] == layerDist+1 {
						res.satAdd(&cnt[m], c0)
					}
				}
			}
			if !hasExt {
				continue
			}
			// Patched-CSR snapshots keep post-fold delta edges in ext
			// segments; counts are order-independent sums (and Reached is
			// sorted below), so walking them as a second pass is
			// equivalent to a canonical layout.
			for _, sg := range c.ExtSegments(v) {
				q2 := d.StepIdx(q, types[sg.Type], adornOf(sg.Dir))
				if q2 < 0 {
					continue
				}
				for _, h := range c.ExtHalfEdges(sg) {
					m := int32(int(h.To)*nQ + q2)
					if stamp[m] != epoch {
						stamp[m] = epoch
						dist[m] = layerDist + 1
						cnt[m] = c0
						next = append(next, m)
					} else if dist[m] == layerDist+1 {
						res.satAdd(&cnt[m], c0)
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next // keep grown capacity pooled
	// Targets were fixed in BFS discovery order; sort in the pooled
	// buffer, then copy out exactly once — the kernel's only per-run
	// allocation besides the caller's Counts.
	slices.Sort(reached)
	res.Reached = append(res.Reached[:0], reached...)
	s.reached = reached
	return true
}

// CountASPPair solves the single-pair SDMC flavor. ok is false when no
// satisfying path exists; err is CountASPCtx's.
func CountASPPair(g *graph.Graph, d *darpe.DFA, src, dst graph.VID) (dist int, mult uint64, ok bool, err error) {
	if src == dst && d.Accepting(d.Start()) {
		// The empty path is the unique length-0 path and no shorter
		// one exists: answer without running the BFS.
		return 0, 1, true, nil
	}
	c, err := CountASPCtx(context.Background(), g, d, src)
	if err != nil || !c.HasPath(dst) {
		return 0, 0, false, err
	}
	return int(c.Dist[dst]), c.Mult[dst], true, nil
}

// CountExists implements the SparQL-style existence semantics: every
// vertex reachable through a satisfying path gets multiplicity 1, with
// Dist reporting the shortest satisfying length.
func CountExists(g *graph.Graph, d *darpe.DFA, src graph.VID) (*Counts, error) {
	c, err := CountASPCtx(context.Background(), g, d, src)
	if err != nil {
		return nil, err
	}
	Existsify(c)
	return c, nil
}

// Existsify collapses ASP counts to the existence semantics in place:
// every reached target's multiplicity becomes 1 (and saturation is
// moot). It lets callers who already ran the counting kernel (e.g. via
// SourceCounter) derive ShortestExists results without a second BFS.
// It walks Reached, the targets with Dist >= 0, so it costs
// O(reached), not O(V).
func Existsify(c *Counts) {
	for _, t := range c.Reached {
		c.Mult[t] = 1
	}
	c.Saturated = false
}
