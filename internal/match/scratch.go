package match

import (
	"sync"

	"gsqlgo/internal/graph"
)

// scratch is the reusable working set of one SDMC kernel run over a
// product space of n = V·Q nodes: per-product-node distance and count
// arrays plus the two BFS frontier buffers. Reuse works through
// epoch-stamped visitation — dist[i] and cnt[i] are meaningful only
// when stamp[i] equals the current epoch — so starting the next
// per-source run costs one epoch increment instead of an O(V·Q)
// re-clear, and the steady-state kernel allocates nothing.
type scratch struct {
	epoch uint32
	stamp []uint32 // visitation epoch per product node
	dist  []int32  // BFS layer; valid iff stamp matches epoch
	cnt   []uint64 // shortest-walk count; valid iff stamp matches epoch
	// frontier/next are the current and next BFS layers, swapped each
	// step; kept here so their grown capacity survives across runs.
	frontier []int32
	next     []int32
	// reached collects matched targets during a run (then sorted and
	// copied into Counts.Reached); kept here for the same reason.
	reached []graph.VID
}

// scratchPool holds scratches of any size. A run over an n-node
// product space uses only the first n entries of each array, so one
// scratch serves every product no larger than it, and a growing graph
// adds no size class.
var scratchPool sync.Pool

// getScratch fetches a pooled scratch fitted to an n-node product
// space.
func getScratch(n int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	return s.fit(n)
}

// fit returns s (a fresh scratch when s is nil) covering an n-node
// product space. A scratch that is too small keeps its frontier
// buffers and gets fresh zeroed arrays with an eighth of headroom, so
// a graph growing by a few vertices per write does not reallocate them
// on the next run after every write.
func (s *scratch) fit(n int) *scratch {
	if s == nil {
		s = new(scratch)
	}
	if len(s.stamp) < n {
		size := n + n/8
		s.stamp = make([]uint32, size)
		s.dist = make([]int32, size)
		s.cnt = make([]uint64, size)
	}
	return s
}

// putScratch returns a scratch to the pool for reuse.
func putScratch(s *scratch) { scratchPool.Put(s) }

// nextEpoch opens a fresh visitation epoch, invalidating every stamp
// at once. On uint32 wraparound the stamps are cleared for real so a
// stale stamp from 2^32 runs ago cannot read as current.
func (s *scratch) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}
