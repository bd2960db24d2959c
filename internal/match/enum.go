package match

import (
	"context"
	"fmt"
	"slices"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// EnumLimits bounds an enumeration run. Zero values select defaults.
type EnumLimits struct {
	// MaxSteps aborts the enumeration (ErrBudget) after this many DFS
	// edge traversals. Default 50 million.
	MaxSteps uint64
	// MaxLen bounds path length. Mandatory (>0) for
	// UnrestrictedBounded; ignored as "no bound" (graph-size bound
	// still applies) for the non-repeating semantics, whose paths are
	// finite by definition.
	MaxLen int
}

func (l EnumLimits) maxSteps() uint64 {
	if l.MaxSteps == 0 {
		return 50_000_000
	}
	return l.MaxSteps
}

// CountEnumCtx counts satisfying legal paths from src to every target
// by explicit enumeration under the selected semantics. It implements
// the reference behaviour of the non-repeating flavors (exponential in
// the worst case — this is the point of the paper's Table 1
// comparison). Supported semantics: NonRepeatedEdge,
// NonRepeatedVertex, UnrestrictedBounded. Dist reports the shortest
// counted length per target; Mult counts all legal satisfying paths
// (not only shortest). The DFS polls ctx.Done() on a step stride, so
// deadlines bound the exponential enumeration baselines the same way
// they bound the polynomial kernel.
func CountEnumCtx(ctx context.Context, g *graph.Graph, d *darpe.DFA, src graph.VID, sem Semantics, limits EnumLimits) (*Counts, error) {
	switch sem {
	case NonRepeatedEdge, NonRepeatedVertex, UnrestrictedBounded:
	default:
		return nil, fmt.Errorf("match: CountEnumCtx does not implement %v; use CountASPCtx/CountExists", sem)
	}
	if sem == UnrestrictedBounded && limits.MaxLen <= 0 {
		return nil, fmt.Errorf("match: UnrestrictedBounded requires MaxLen > 0")
	}
	e := &enumerator{
		g:      g,
		d:      d,
		types:  typeResolver(g, d),
		sem:    sem,
		res:    newCounts(g.NumVertices()),
		budget: limits.maxSteps(),
		maxLen: limits.MaxLen,
		done:   ctx.Done(),
		ctx:    ctx,
	}
	if sem == NonRepeatedEdge {
		e.usedEdges = newBitset(g.NumEdges())
	}
	if sem == NonRepeatedVertex {
		e.usedVerts = newBitset(g.NumVertices())
		e.usedVerts.set(int(src))
	}
	if err := e.walk(src, d.Start(), 0); err != nil {
		return nil, err
	}
	slices.Sort(e.res.Reached)
	return e.res, nil
}

type enumerator struct {
	g         *graph.Graph
	d         *darpe.DFA
	types     []int
	sem       Semantics
	res       *Counts
	budget    uint64
	steps     uint64
	maxLen    int
	usedEdges bitset
	usedVerts bitset
	canReach  bitset // optional target-reachability pruning
	done      <-chan struct{}
	ctx       context.Context
}

func (e *enumerator) record(v graph.VID, length int32) {
	if e.res.Dist[v] < 0 {
		e.res.Reached = append(e.res.Reached, v)
	}
	if e.res.Dist[v] < 0 || length < e.res.Dist[v] {
		e.res.Dist[v] = length
	}
	e.res.satAdd(&e.res.Mult[v], 1)
}

func (e *enumerator) walk(v graph.VID, q int, length int32) error {
	if e.d.Accepting(q) {
		e.record(v, length)
	}
	if e.maxLen > 0 && int(length) >= e.maxLen {
		return nil
	}
	for _, h := range e.g.Neighbors(v) {
		q2 := e.d.StepIdx(q, e.types[h.Type], adornOf(h.Dir))
		if q2 < 0 {
			continue
		}
		if e.canReach != nil && !e.canReach.get(int(h.To)) {
			continue
		}
		switch e.sem {
		case NonRepeatedEdge:
			if e.usedEdges.get(int(h.Edge)) {
				continue
			}
			e.usedEdges.set(int(h.Edge))
		case NonRepeatedVertex:
			if e.usedVerts.get(int(h.To)) {
				continue
			}
			e.usedVerts.set(int(h.To))
		}
		if e.budget == 0 {
			return ErrBudget
		}
		e.budget--
		e.steps++
		if e.done != nil && e.steps&8191 == 0 {
			select {
			case <-e.done:
				return ctxErr(e.ctx)
			default:
			}
		}
		err := e.walk(h.To, q2, length+1)
		switch e.sem {
		case NonRepeatedEdge:
			e.usedEdges.clear(int(h.Edge))
		case NonRepeatedVertex:
			e.usedVerts.clear(int(h.To))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// CountEnumPair counts legal satisfying src→dst paths by enumeration.
// Like a real anchored-pattern engine, it prunes DFS branches at
// vertices that cannot reach dst under any traversal kind the pattern
// uses, so the cost is proportional to the paths actually matched (the
// Table 1 behaviour: Neo4j's time doubles with the match count), not
// to all paths leaving src.
func CountEnumPair(g *graph.Graph, d *darpe.DFA, src, dst graph.VID, sem Semantics, limits EnumLimits) (mult uint64, err error) {
	switch sem {
	case NonRepeatedEdge, NonRepeatedVertex, UnrestrictedBounded:
	default:
		return 0, fmt.Errorf("match: CountEnumPair does not implement %v; use CountASPPair", sem)
	}
	if sem == UnrestrictedBounded && limits.MaxLen <= 0 {
		return 0, fmt.Errorf("match: UnrestrictedBounded requires MaxLen > 0")
	}
	e := &enumerator{
		g:        g,
		d:        d,
		types:    typeResolver(g, d),
		sem:      sem,
		res:      newCounts(g.NumVertices()),
		budget:   limits.maxSteps(),
		maxLen:   limits.MaxLen,
		canReach: reverseReachable(g, d, dst),
	}
	if sem == NonRepeatedEdge {
		e.usedEdges = newBitset(g.NumEdges())
	}
	if sem == NonRepeatedVertex {
		e.usedVerts = newBitset(g.NumVertices())
		e.usedVerts.set(int(src))
	}
	if !e.canReach.get(int(src)) {
		return 0, nil
	}
	if err := e.walk(src, d.Start(), 0); err != nil {
		return 0, err
	}
	return e.res.Mult[dst], nil
}

// reverseReachable marks the vertices from which dst is reachable via
// traversal kinds the pattern can consume (a sound overapproximation
// ignoring automaton state).
func reverseReachable(g *graph.Graph, d *darpe.DFA, dst graph.VID) bitset {
	can := newBitset(g.NumVertices())
	can.set(int(dst))
	frontier := []graph.VID{dst}
	useFwd := d.UsesAdorn(darpe.AdornFwd)
	useRev := d.UsesAdorn(darpe.AdornRev)
	useUnd := d.UsesAdorn(darpe.AdornUnd)
	for len(frontier) > 0 {
		var next []graph.VID
		for _, y := range frontier {
			for _, h := range g.Neighbors(y) {
				// A step x→y exists iff, seen from y, the half-edge
				// points back at x with the inverse direction.
				ok := false
				switch h.Dir {
				case graph.DirIn:
					ok = useFwd
				case graph.DirOut:
					ok = useRev
				case graph.DirUndir:
					ok = useUnd
				}
				if ok && !can.get(int(h.To)) {
					can.set(int(h.To))
					next = append(next, h.To)
				}
			}
		}
		frontier = next
	}
	return can
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
