package graph

import (
	"errors"
	"fmt"

	"gsqlgo/internal/value"
)

// ErrDuplicateKey reports an AddVertex whose (typeName, key) pair is
// already present. Rejecting duplicates (rather than silently inserting
// a second vertex unreachable via VertexByKey) is load-bearing for
// durability: WAL replay re-issues the original mutation sequence and
// must reach the exact same state, so inserts have to be deterministic
// and key-unique. Match with errors.Is; it is always returned wrapped.
var ErrDuplicateKey = errors.New("duplicate vertex key")

// VID identifies a vertex within a Graph.
type VID int32

// EID identifies an edge within a Graph.
type EID int32

// Dir is the traversal direction of a half-edge relative to the vertex
// whose adjacency list contains it. It corresponds one-to-one to the
// paper's direction-adorned alphabet: an E-edge traversed via DirOut
// spells the symbol "E>", via DirIn the symbol "<E", and via DirUndir
// the symbol "E".
type Dir uint8

// Half-edge traversal directions.
const (
	DirOut   Dir = iota // directed edge leaving this vertex
	DirIn               // directed edge arriving at this vertex
	DirUndir            // undirected edge
)

// String returns a short name for the direction.
func (d Dir) String() string {
	switch d {
	case DirOut:
		return "out"
	case DirIn:
		return "in"
	case DirUndir:
		return "undir"
	default:
		return "dir?"
	}
}

// HalfEdge is one entry of a vertex's adjacency list.
type HalfEdge struct {
	To   VID   // the other endpoint
	Edge EID   // the underlying edge
	Type int16 // edge type id
	Dir  Dir   // traversal direction from the owning vertex
}

// Graph is an in-memory property graph with MVCC snapshot reads. A
// Graph value is either the mutable *head* of a lineage or an
// immutable *snapshot view* of it (see Snapshot); both expose the same
// read API. The head accepts mutations from one writer at a time
// (external serialization required, e.g. the server's writer mutex)
// and publishes a fresh snapshot after every applied mutation; any
// number of readers may hold and read snapshots concurrently with the
// writer, lock-free, and each snapshot observes exactly the mutations
// published before it was taken — never a half-applied batch.
//
// Storage is append-only and structurally shared: a snapshot captures
// slice-header prefixes plus visibility horizons rather than copying
// data, so taking one is O(1) and holding one pins only the versions
// it can see.
type Graph struct {
	Schema *Schema

	sh   *shared // the lineage hub; same object for head and all views
	head bool    // true only for the mutable head

	// Append-only columns. A view's visibility horizons are the header
	// lengths themselves: len(vtype) vertices and len(etype) edges.
	vtype  []int16     // vertex type id per vertex
	vkeys  []string    // primary key per vertex
	vattr  []*attrCell // version-chained attribute rows per vertex
	adjc   []*adjCell  // atomic full-prefix adjacency per vertex
	etype  []int16
	esrc   []VID
	edst   []VID
	eattrs [][]value.Value

	// Schema-fixed shared indexes (one slot per vertex type, the outer
	// slice never reallocates); reads filter by the view's vertex
	// horizon.
	keys   []*keyMap
	byType []*vidList

	// Horizons. attrVer is the newest visible attribute version: the
	// head keeps it equal to sh.attrSeq, a view freezes it at publish.
	// epochAt is a view's pinned topology epoch (the head reads the
	// live counter instead).
	attrVer uint64
	epochAt uint64

	// observer, when attached, is notified of every mutation after
	// validation and before apply (see MutationObserver). Head only.
	observer MutationObserver
}

// New returns an empty graph over the given schema: the mutable head
// of a fresh lineage, with an empty snapshot already published.
func New(s *Schema) *Graph {
	g := &Graph{Schema: s, sh: &shared{}, head: true}
	g.keys = make([]*keyMap, len(s.vertexTypes))
	g.byType = make([]*vidList, len(s.vertexTypes))
	for i := range g.keys {
		g.keys[i] = &keyMap{}
		g.byType[i] = &vidList{}
	}
	g.publish()
	g.sh.fold.Store(g.sh.current.Load())
	return g
}

// Epoch returns the topology-mutation epoch: the head reports the live
// counter, a snapshot its pinned value. The epoch advances on every
// AddVertex/AddEdge — the same events that re-base the CSR — so
// callers can stamp topology-derived caches with the epoch they
// computed under and discard them when it moves. Attribute updates
// (SetVertexAttr) leave the epoch unchanged.
func (g *Graph) Epoch() uint64 {
	if g.head {
		return g.sh.epoch.Load()
	}
	return g.epochAt
}

// NumVertices returns the number of vertices visible to g.
func (g *Graph) NumVertices() int { return len(g.vtype) }

// NumEdges returns the number of edges visible to g.
func (g *Graph) NumEdges() int { return len(g.etype) }

// AddVertex inserts a vertex of the named type with the given primary
// key and attributes. Missing attributes default to their type's zero
// value; unknown attribute names or mistyped values are errors. Head
// only; mutating a snapshot panics.
func (g *Graph) AddVertex(typeName, key string, attrs map[string]value.Value) (VID, error) {
	g.mutableOnly("AddVertex")
	vt := g.Schema.VertexType(typeName)
	if vt == nil {
		return 0, fmt.Errorf("graph: unknown vertex type %q", typeName)
	}
	if _, dup := g.keys[vt.ID].m.Load(key); dup {
		return 0, fmt.Errorf("graph: %w: %s %q", ErrDuplicateKey, typeName, key)
	}
	row, err := buildAttrRow(vt.Attrs, vt.attrIdx, attrs, "vertex "+typeName)
	if err != nil {
		return 0, err
	}
	id := VID(len(g.vtype))
	if g.observer != nil {
		if err := g.observer.OnAddVertex(id, typeName, key, row); err != nil {
			return 0, fmt.Errorf("graph: persisting vertex %s %q: %w", typeName, key, err)
		}
	}
	ac := &attrCell{}
	ac.p.Store(&attrRow{vals: row})
	g.vtype = append(g.vtype, int16(vt.ID))
	g.vkeys = append(g.vkeys, key)
	g.vattr = append(g.vattr, ac)
	g.adjc = append(g.adjc, &adjCell{})
	g.keys[vt.ID].m.Store(key, id)
	bl := g.byType[vt.ID]
	var vs []VID
	if p := bl.p.Load(); p != nil {
		vs = *p
	}
	vs = append(vs, id)
	bl.p.Store(&vs)
	g.sh.epoch.Add(1)
	g.publish()
	g.maybeFold()
	return id, nil
}

// AddEdge inserts an edge of the named type between two vertices. For
// an undirected edge type the (src, dst) order is immaterial. Head
// only; mutating a snapshot panics.
func (g *Graph) AddEdge(typeName string, src, dst VID, attrs map[string]value.Value) (EID, error) {
	g.mutableOnly("AddEdge")
	et := g.Schema.EdgeType(typeName)
	if et == nil {
		return 0, fmt.Errorf("graph: unknown edge type %q", typeName)
	}
	if int(src) >= len(g.vtype) || int(dst) >= len(g.vtype) || src < 0 || dst < 0 {
		return 0, fmt.Errorf("graph: edge %s endpoints out of range (%d, %d)", typeName, src, dst)
	}
	row, err := buildAttrRow(et.Attrs, et.attrIdx, attrs, "edge "+typeName)
	if err != nil {
		return 0, err
	}
	id := EID(len(g.etype))
	if g.observer != nil {
		if err := g.observer.OnAddEdge(id, typeName, src, dst, row); err != nil {
			return 0, fmt.Errorf("graph: persisting edge %s (%d, %d): %w", typeName, src, dst, err)
		}
	}
	g.etype = append(g.etype, int16(et.ID))
	g.esrc = append(g.esrc, src)
	g.edst = append(g.edst, dst)
	g.eattrs = append(g.eattrs, row)
	if et.Directed {
		g.adjc[src].appendHalf(HalfEdge{To: dst, Edge: id, Type: int16(et.ID), Dir: DirOut})
		g.adjc[dst].appendHalf(HalfEdge{To: src, Edge: id, Type: int16(et.ID), Dir: DirIn})
	} else {
		g.adjc[src].appendHalf(HalfEdge{To: dst, Edge: id, Type: int16(et.ID), Dir: DirUndir})
		if src != dst {
			g.adjc[dst].appendHalf(HalfEdge{To: src, Edge: id, Type: int16(et.ID), Dir: DirUndir})
		}
	}
	g.sh.epoch.Add(1)
	g.publish()
	g.maybeFold()
	return id, nil
}

// appendHalf appends one half-edge to a cell's full-prefix list. The
// store publishes the longer header; readers holding the shorter
// header never touch the appended slot, and a realloc leaves their
// backing array intact.
func (c *adjCell) appendHalf(h HalfEdge) {
	var hs []HalfEdge
	if p := c.p.Load(); p != nil {
		hs = *p
	}
	hs = append(hs, h)
	c.p.Store(&hs)
}

func buildAttrRow(defs []AttrDef, idx map[string]int, attrs map[string]value.Value, what string) ([]value.Value, error) {
	row := make([]value.Value, len(defs))
	for i, d := range defs {
		row[i] = d.Type.Zero()
	}
	for name, v := range attrs {
		i, ok := idx[name]
		if !ok {
			return nil, fmt.Errorf("graph: %s has no attribute %q", what, name)
		}
		if !defs[i].Type.Accepts(v) {
			return nil, fmt.Errorf("graph: %s attribute %q: cannot store %s into %s", what, name, v.Kind(), defs[i].Type)
		}
		row[i] = defs[i].Type.coerce(v)
	}
	return row, nil
}

// VertexByKey resolves a vertex by type name and primary key among the
// vertices visible to g.
func (g *Graph) VertexByKey(typeName, key string) (VID, bool) {
	vt := g.Schema.VertexType(typeName)
	if vt == nil {
		return 0, false
	}
	x, ok := g.keys[vt.ID].m.Load(key)
	if !ok {
		return 0, false
	}
	id := x.(VID)
	if int(id) >= len(g.vtype) {
		return 0, false // inserted after this snapshot was taken
	}
	return id, true
}

// VertexKey returns the primary key of a vertex.
func (g *Graph) VertexKey(v VID) string { return g.vkeys[v] }

// VertexTypeOf returns the type of a vertex.
func (g *Graph) VertexTypeOf(v VID) *VertexType { return g.Schema.vertexTypes[g.vtype[v]] }

// VertexTypeID returns the schema index of a vertex's type — the key
// compiled accumulator kernels use to index pre-resolved attribute
// offset tables without touching the schema's name maps.
func (g *Graph) VertexTypeID(v VID) int { return int(g.vtype[v]) }

// attrRowOf returns the newest version of v's attribute row visible to
// g. The chain always bottoms out at the insert row (ver 0), which is
// visible to every view that can see the vertex at all.
func (g *Graph) attrRowOf(v VID) []value.Value {
	r := g.vattr[v].p.Load()
	for r.ver > g.attrVer {
		r = r.prev
	}
	return r.vals
}

// VertexAttrAt returns a vertex attribute by pre-resolved column
// offset (see VertexType.AttrIndex). The offset must be valid for the
// vertex's type; compiled kernels guarantee that by resolving offsets
// per type id at install time.
func (g *Graph) VertexAttrAt(v VID, i int) value.Value { return g.attrRowOf(v)[i] }

// VertexAttrIntAt / VertexAttrFloatAt read a pre-resolved column as a
// machine scalar without materializing a Value copy; ok is false when
// the stored kind differs (compiled kernels then fall back to their
// boxed path).
func (g *Graph) VertexAttrIntAt(v VID, i int) (int64, bool)     { return g.attrRowOf(v)[i].TryInt() }
func (g *Graph) VertexAttrFloatAt(v VID, i int) (float64, bool) { return g.attrRowOf(v)[i].TryFloat() }

// VerticesOfType returns all vertices of the named type visible to g
// (nil if the type is unknown). The returned slice must not be
// mutated.
func (g *Graph) VerticesOfType(typeName string) []VID {
	vt := g.Schema.VertexType(typeName)
	if vt == nil {
		return nil
	}
	p := g.byType[vt.ID].p.Load()
	if p == nil {
		return nil
	}
	vs := *p
	// VIDs ascend within the list, so visibility is suffix truncation.
	for len(vs) > 0 && int(vs[len(vs)-1]) >= len(g.vtype) {
		vs = vs[:len(vs)-1]
	}
	return vs
}

// VertexAttr returns the named attribute of a vertex.
func (g *Graph) VertexAttr(v VID, name string) (value.Value, bool) {
	vt := g.VertexTypeOf(v)
	i := vt.AttrIndex(name)
	if i < 0 {
		return value.Null, false
	}
	return g.attrRowOf(v)[i], true
}

// SetVertexAttr updates the named attribute of a vertex by prepending
// a fresh version to its row chain; snapshots taken earlier keep
// reading the version they pinned. Head only; mutating a snapshot
// panics.
func (g *Graph) SetVertexAttr(v VID, name string, val value.Value) error {
	g.mutableOnly("SetVertexAttr")
	vt := g.VertexTypeOf(v)
	i := vt.AttrIndex(name)
	if i < 0 {
		return fmt.Errorf("graph: vertex type %s has no attribute %q", vt.Name, name)
	}
	if !vt.Attrs[i].Type.Accepts(val) {
		return fmt.Errorf("graph: attribute %q: cannot store %s into %s", name, val.Kind(), vt.Attrs[i].Type)
	}
	coerced := vt.Attrs[i].Type.coerce(val)
	if g.observer != nil {
		if err := g.observer.OnSetVertexAttr(v, name, coerced); err != nil {
			return fmt.Errorf("graph: persisting attribute %q of vertex %d: %w", name, v, err)
		}
	}
	cell := g.vattr[v]
	cur := cell.p.Load()
	vals := make([]value.Value, len(cur.vals))
	copy(vals, cur.vals)
	vals[i] = coerced
	ver := g.sh.attrSeq.Add(1)
	cell.p.Store(&attrRow{vals: vals, ver: ver, prev: cur})
	g.attrVer = ver
	g.publish()
	g.maybeFold()
	return nil
}

// EdgeTypeOf returns the type of an edge.
func (g *Graph) EdgeTypeOf(e EID) *EdgeType { return g.Schema.edgeTypes[g.etype[e]] }

// EdgeTypeID returns the schema index of an edge's type (the edge
// counterpart of VertexTypeID).
func (g *Graph) EdgeTypeID(e EID) int { return int(g.etype[e]) }

// EdgeAttrAt returns an edge attribute by pre-resolved column offset
// (the edge counterpart of VertexAttrAt). Edge attributes are
// immutable after insert, so no version chain is needed.
func (g *Graph) EdgeAttrAt(e EID, i int) value.Value { return g.eattrs[e][i] }

// EdgeAttrIntAt / EdgeAttrFloatAt are the edge counterparts of the
// typed vertex column reads.
func (g *Graph) EdgeAttrIntAt(e EID, i int) (int64, bool)     { return g.eattrs[e][i].TryInt() }
func (g *Graph) EdgeAttrFloatAt(e EID, i int) (float64, bool) { return g.eattrs[e][i].TryFloat() }

// EdgeEndpoints returns the (source, destination) pair of an edge as
// stored; for undirected edges the order is insertion order.
func (g *Graph) EdgeEndpoints(e EID) (VID, VID) { return g.esrc[e], g.edst[e] }

// EdgeAttr returns the named attribute of an edge.
func (g *Graph) EdgeAttr(e EID, name string) (value.Value, bool) {
	et := g.EdgeTypeOf(e)
	i := et.AttrIndex(name)
	if i < 0 {
		return value.Null, false
	}
	return g.eattrs[e][i], true
}

// Neighbors returns the adjacency list of a vertex visible to g: one
// HalfEdge per incident edge, with the traversal direction seen from
// v, in insertion order. The slice must not be mutated.
func (g *Graph) Neighbors(v VID) []HalfEdge {
	p := g.adjc[v].p.Load()
	if p == nil {
		return nil
	}
	hs := *p
	// Edge ids ascend within a list, so a view's visibility is suffix
	// truncation at its edge horizon. For the head (and any snapshot
	// at the newest horizon) the loop exits immediately.
	limit := EID(len(g.etype))
	for len(hs) > 0 && hs[len(hs)-1].Edge >= limit {
		hs = hs[:len(hs)-1]
	}
	return hs
}

// OutDegree returns the number of edges leaving v: outgoing directed
// edges plus incident undirected edges (TigerGraph's outdegree()).
func (g *Graph) OutDegree(v VID) int {
	n := 0
	for _, h := range g.Neighbors(v) {
		if h.Dir == DirOut || h.Dir == DirUndir {
			n++
		}
	}
	return n
}

// Degree returns the total number of incident half-edges of v.
func (g *Graph) Degree(v VID) int { return len(g.Neighbors(v)) }
