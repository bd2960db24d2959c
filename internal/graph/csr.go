package graph

import (
	"slices"
)

// CSR is a frozen compressed-sparse-row view of a graph's adjacency:
// every half-edge of every vertex in one flat array, grouped by vertex
// and, within a vertex, sorted by (Type, Dir, Edge). It serves every
// hot adjacency read: the SDMC counter of internal/match, typed single
// hops and degree reads in internal/core. A flat array walks
// sequentially through memory where per-vertex adjacency lists chase
// one pointer per vertex, and the (Type, Dir) segments let a kernel
// resolve one DFA transition per segment instead of one per half-edge,
// and let a typed hop or degree read touch only the half-edges of its
// edge type. Edge ids ascend in insertion order, so one (Type, Dir)
// segment is exactly Graph.Neighbors' sublist of that type and
// direction, in the same order.
//
// A CSR is immutable once built and safe for concurrent readers. Under
// MVCC a CSR belongs to one snapshot horizon. To avoid rebuilding the
// whole array on every mutation, a lineage keeps one canonical *base*
// CSR built at the last fold point; a snapshot taken past the fold
// point gets a *patched* CSR that shares the base arrays untouched and
// adds dense ext arrays covering only the delta edges. Every base edge
// has a lower id than every delta edge, so walking a segment's base
// run and then its ext run (Run) keeps edge-id order on a patched CSR
// too.
type CSR struct {
	offsets []int32    // len baseV+1; halves[offsets[v]:offsets[v+1]] is v's base adjacency
	halves  []HalfEdge // base half-edges, grouped by vertex, (Type, Dir, Edge)-sorted per vertex
	segOff  []int32    // len baseV+1; segs[segOff[v]:segOff[v+1]] are v's base segments
	segs    []Seg      // per-vertex runs of equal (Type, Dir)

	nV int // vertices in the snapshot this CSR serves (≥ baseV)

	// Patched-CSR extension (nil for a canonical build): half-edges of
	// edges inserted after the base horizon, laid out exactly like the
	// base arrays but over all nV vertices.
	extOff    []int32
	extHalves []HalfEdge
	extSegOff []int32
	extSegs   []Seg
}

// Seg is one maximal run of half-edges of a single vertex sharing the
// same (Type, Dir): the half-edges c.HalfEdges(s) can all be traversed
// by the same DFA transition.
type Seg struct {
	Type  int16 // edge type id
	Dir   Dir   // traversal direction
	Start int32 // into the owning flat half-edge array (base or ext)
	End   int32
}

// NumVertices returns the number of vertices in the snapshot.
func (c *CSR) NumVertices() int { return c.nV }

// NumHalfEdges returns the total number of half-edges.
func (c *CSR) NumHalfEdges() int { return len(c.halves) + len(c.extHalves) }

// HasExt reports whether this CSR carries a delta extension (a patched
// CSR); kernels then also walk ExtSegments.
func (c *CSR) HasExt() bool { return c.extOff != nil }

// Segments returns v's (Type, Dir) runs over the base half-edges; use
// HalfEdges to resolve them. The slice must not be mutated. Vertices
// inserted after the base horizon have no base segments.
func (c *CSR) Segments(v VID) []Seg {
	if int(v) >= len(c.segOff)-1 {
		return nil
	}
	return c.segs[c.segOff[v]:c.segOff[v+1]]
}

// HalfEdges returns the base half-edges covered by one base segment.
func (c *CSR) HalfEdges(s Seg) []HalfEdge { return c.halves[s.Start:s.End] }

// ExtSegments returns v's (Type, Dir) runs over the delta half-edges
// of a patched CSR (nil for a canonical CSR); use ExtHalfEdges to
// resolve them.
func (c *CSR) ExtSegments(v VID) []Seg {
	if c.extSegOff == nil {
		return nil
	}
	return c.extSegs[c.extSegOff[v]:c.extSegOff[v+1]]
}

// ExtHalfEdges returns the delta half-edges covered by one ext
// segment.
func (c *CSR) ExtHalfEdges(s Seg) []HalfEdge { return c.extHalves[s.Start:s.End] }

// Run returns v's half-edges of one (Type, Dir): the base run, then
// the ext run of a patched CSR (nil for a canonical one). Read base
// and then ext, they are g.Neighbors(v) filtered to that type and
// direction, in the same order. Neither slice may be mutated.
func (c *CSR) Run(v VID, typ int16, d Dir) (base, ext []HalfEdge) {
	if s, ok := findSeg(c.Segments(v), typ, d); ok {
		base = c.halves[s.Start:s.End]
	}
	if s, ok := findSeg(c.ExtSegments(v), typ, d); ok {
		ext = c.extHalves[s.Start:s.End]
	}
	return base, ext
}

// findSeg returns the segment of one (Type, Dir) in a vertex's
// (Type, Dir)-sorted segment list.
func findSeg(segs []Seg, typ int16, d Dir) (Seg, bool) {
	for _, s := range segs {
		if s.Type == typ && s.Dir == d {
			return s, true
		}
		if s.Type > typ || (s.Type == typ && s.Dir > d) {
			break
		}
	}
	return Seg{}, false
}

// Degree returns the number of half-edges incident to v.
func (c *CSR) Degree(v VID) int {
	n := 0
	if int(v) < len(c.offsets)-1 {
		n = int(c.offsets[v+1] - c.offsets[v])
	}
	if c.extOff != nil {
		n += int(c.extOff[v+1] - c.extOff[v])
	}
	return n
}

// OutDegree returns the number of edges leaving v: outgoing directed
// edges plus incident undirected edges (TigerGraph's outdegree()).
func (c *CSR) OutDegree(v VID) int { return c.outDegree(v, -1) }

// OutDegreeOfType is OutDegree restricted to one edge-type id.
func (c *CSR) OutDegreeOfType(v VID, typeID int) int { return c.outDegree(v, typeID) }

// outDegree sums the lengths of v's non-incoming segments, over base
// and ext, of edge type typeID (any type when typeID < 0).
func (c *CSR) outDegree(v VID, typeID int) int {
	n := 0
	for _, segs := range [2][]Seg{c.Segments(v), c.ExtSegments(v)} {
		for _, s := range segs {
			if s.Dir != DirIn && (typeID < 0 || int(s.Type) == typeID) {
				n += int(s.End - s.Start)
			}
		}
	}
	return n
}

// Freeze returns the CSR for g's snapshot horizon, building it on
// first use. The lineage caches two CSRs: the canonical base at the
// last fold point and the most recently built snapshot CSR. A
// snapshot at the fold point returns the base; a snapshot past it
// returns a patched CSR (base arrays shared, delta edges in dense ext
// arrays) built in O(delta); a snapshot pinned before the current fold
// point — a long-running reader that outlived a fold — gets a private
// canonical build.
//
// Freeze is safe to call from concurrent readers (the query path calls
// it lazily); concurrent first calls may build the same snapshot CSR
// more than once, which is wasteful but correct since all builds are
// identical.
func (g *Graph) Freeze() *CSR {
	v := g.Snapshot() // the head freezes its current published horizon
	sh := v.sh
	nV, nE := len(v.vtype), len(v.etype)
	if cc := sh.csr.Load(); cc != nil && cc.nV == nV && cc.nE == nE {
		return cc.c
	}
	bc := sh.base.Load()
	if bc != nil && bc.nV == nV && bc.nE == nE {
		return bc.c
	}
	fp := sh.fold.Load()
	if bc == nil || bc.nV != len(fp.vtype) || bc.nE != len(fp.etype) {
		// The fold point moved since the base was built (or it never
		// was): rebuild the canonical base at the fold horizon.
		bc = &csrCache{nV: len(fp.vtype), nE: len(fp.etype), c: buildCSR(fp)}
		sh.base.Store(bc)
		if bc.nV == nV && bc.nE == nE {
			return bc.c
		}
	}
	if nV < bc.nV || nE < bc.nE {
		// Snapshot pinned before the fold point: private canonical
		// build, not cached (the shared slots track newer horizons).
		return buildCSR(v)
	}
	var c *CSR
	if nE-bc.nE > bc.nE {
		// The delta dominates the base (e.g. a freshly built graph that
		// never folded): a canonical build reads faster than a patch.
		c = buildCSR(v)
	} else {
		c = buildPatchedCSR(bc.c, bc.nE, v)
	}
	sh.csr.Store(&csrCache{nV: nV, nE: nE, c: c})
	return c
}

func buildCSR(g *Graph) *CSR {
	nV := g.NumVertices()
	c := &CSR{
		offsets: make([]int32, nV+1),
		segOff:  make([]int32, nV+1),
		nV:      nV,
	}
	total := 0
	for v := 0; v < nV; v++ {
		total += len(g.Neighbors(VID(v)))
	}
	c.halves = make([]HalfEdge, 0, total)
	c.segs = make([]Seg, 0, nV) // ≥1 segment per non-isolated vertex
	for v := 0; v < nV; v++ {
		start := len(c.halves)
		c.halves = append(c.halves, g.Neighbors(VID(v))...)
		own := c.halves[start:]
		sortHalves(own)
		appendSegs(&c.segs, own, start)
		c.offsets[v+1] = int32(len(c.halves))
		c.segOff[v+1] = int32(len(c.segs))
	}
	return c
}

// buildPatchedCSR layers the half-edges of edges [baseE, nE) over a
// canonical base CSR. Cost is O(nV + delta): the base arrays are
// shared by reference, only the dense ext offset/segment arrays and
// the delta half-edges are allocated.
func buildPatchedCSR(base *CSR, baseE int, v *Graph) *CSR {
	nV, nE := len(v.vtype), len(v.etype)
	c := &CSR{
		offsets: base.offsets,
		halves:  base.halves,
		segOff:  base.segOff,
		segs:    base.segs,
		nV:      nV,
	}
	c.extOff = make([]int32, nV+1)
	for e := baseE; e < nE; e++ {
		et := v.Schema.edgeTypes[v.etype[e]]
		s, d := v.esrc[e], v.edst[e]
		c.extOff[s+1]++
		if et.Directed || s != d {
			c.extOff[d+1]++
		}
	}
	for i := 1; i <= nV; i++ {
		c.extOff[i] += c.extOff[i-1]
	}
	c.extHalves = make([]HalfEdge, c.extOff[nV])
	cursor := make([]int32, nV)
	copy(cursor, c.extOff[:nV])
	put := func(at VID, h HalfEdge) {
		c.extHalves[cursor[at]] = h
		cursor[at]++
	}
	for e := baseE; e < nE; e++ {
		et := v.Schema.edgeTypes[v.etype[e]]
		s, d := v.esrc[e], v.edst[e]
		id, tid := EID(e), int16(et.ID)
		if et.Directed {
			put(s, HalfEdge{To: d, Edge: id, Type: tid, Dir: DirOut})
			put(d, HalfEdge{To: s, Edge: id, Type: tid, Dir: DirIn})
		} else {
			put(s, HalfEdge{To: d, Edge: id, Type: tid, Dir: DirUndir})
			if s != d {
				put(d, HalfEdge{To: s, Edge: id, Type: tid, Dir: DirUndir})
			}
		}
	}
	c.extSegOff = make([]int32, nV+1)
	c.extSegs = make([]Seg, 0, 8)
	for vv := 0; vv < nV; vv++ {
		own := c.extHalves[c.extOff[vv]:c.extOff[vv+1]]
		sortHalves(own)
		appendSegs(&c.extSegs, own, int(c.extOff[vv]))
		c.extSegOff[vv+1] = int32(len(c.extSegs))
	}
	return c
}

// sortHalves orders one vertex's half-edges canonically: by (Type,
// Dir), then by edge id, so each segment keeps insertion order.
func sortHalves(own []HalfEdge) {
	slices.SortFunc(own, func(a, b HalfEdge) int {
		if a.Type != b.Type {
			return int(a.Type) - int(b.Type)
		}
		if a.Dir != b.Dir {
			return int(a.Dir) - int(b.Dir)
		}
		return int(a.Edge) - int(b.Edge)
	})
}

// appendSegs appends the (Type, Dir) runs of one sorted per-vertex
// span to segs; start is the span's offset in its flat array.
func appendSegs(segs *[]Seg, own []HalfEdge, start int) {
	for i := 0; i < len(own); {
		j := i + 1
		for j < len(own) && own[j].Type == own[i].Type && own[j].Dir == own[i].Dir {
			j++
		}
		*segs = append(*segs, Seg{
			Type:  own[i].Type,
			Dir:   own[i].Dir,
			Start: int32(start + i),
			End:   int32(start + j),
		})
		i = j
	}
}
