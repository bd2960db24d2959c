package match

import (
	"errors"
	"fmt"
	"math"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
)

// ErrProductTooLarge reports a (graph, DFA) pair whose V·Q product
// space exceeds what the SDMC kernel addresses: its product-node ids
// are int32, and at that size its scratch alone would need tens of
// gigabytes.
var ErrProductTooLarge = errors.New("match: product graph too large for the SDMC kernel")

// maxProduct is the largest V·Q product the kernel accepts. It is a
// variable only so that tests can exercise the error path without
// building a huge graph.
var maxProduct int64 = math.MaxInt32

// productFits reports whether an nV-vertex graph times an nQ-state DFA
// fits the kernel's product-node ids.
func productFits(nV, nQ int) bool { return int64(nV)*int64(nQ) <= maxProduct }

// SourceCounter amortizes repeated single-source SDMC runs over one
// (graph, DFA) pair: the frozen CSR, the DFA's edge-type table and one
// pooled kernel scratch are resolved at construction and shared across
// every Count call, so a call allocates only its returned Counts. It
// is the one driver of the counting kernel: the engine's counted-hop
// expansion runs one SourceCounter per worker goroutine, and
// CountASPCtx runs one for a single source.
//
// A SourceCounter is NOT safe for concurrent use (the scratch is
// exclusive); Close returns the scratch to the pool. Existence
// semantics is Existsify over its result; enumeration stays with
// CountEnumCtx.
type SourceCounter struct {
	nV    int
	d     *darpe.DFA
	c     *graph.CSR
	types []int
	s     *scratch
}

// NewSourceCounter prepares a counter for repeated single-source runs.
// It fails with ErrProductTooLarge when the product space does not fit
// the kernel.
func NewSourceCounter(g *graph.Graph, d *darpe.DFA) (*SourceCounter, error) {
	sc := new(SourceCounter)
	if err := sc.init(g, d); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *SourceCounter) init(g *graph.Graph, d *darpe.DFA) error {
	nV, nQ := g.NumVertices(), d.NumStates()
	if !productFits(nV, nQ) {
		return fmt.Errorf("%w: %d vertices x %d DFA states", ErrProductTooLarge, nV, nQ)
	}
	*sc = SourceCounter{nV: nV, d: d}
	if nV == 0 {
		return nil
	}
	sc.c = g.Freeze()
	sc.types = typeResolver(g, d)
	sc.s = getScratch(nV * nQ)
	return nil
}

// Count runs one single-source SDMC BFS. done (nil = never) is polled
// on the kernel's cancellation stride; ok is false when the run was
// aborted that way, in which case the Counts must be discarded.
func (sc *SourceCounter) Count(src graph.VID, done <-chan struct{}) (*Counts, bool) {
	res := newCounts(sc.nV)
	if sc.nV == 0 {
		return res, true
	}
	ok := countASPInto(sc.c, sc.d, sc.types, src, sc.s, res, done)
	return res, ok
}

// Close releases the pooled scratch. The counter must not be used
// afterwards.
func (sc *SourceCounter) Close() {
	if sc.s != nil {
		putScratch(sc.s)
		sc.s = nil
	}
}
