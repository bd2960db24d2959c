package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/match"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// bindingTable is the compressed binding table of Section 4.1 /
// Appendix A: one row per distinct variable binding, with the number
// of witnessing path choices carried as a multiplicity instead of
// materialized duplicate rows.
type bindingTable struct {
	vertAliases []string
	vertIdx     map[string]int
	edgeAliases []string
	edgeIdx     map[string]int
	// relational-table conjunct columns (Example 1): each binds a row
	// value (column → value map).
	relAliases []string
	relIdx     map[string]int
	rows       []bindingRow
}

type bindingRow struct {
	verts []graph.VID
	edges []graph.EID
	rels  []value.Value
	mult  uint64
}

func newBindingTable() *bindingTable {
	return &bindingTable{vertIdx: map[string]int{}, edgeIdx: map[string]int{}, relIdx: map[string]int{}}
}

func (bt *bindingTable) addVertAlias(name string) int {
	if i, ok := bt.vertIdx[name]; ok {
		return i
	}
	bt.vertIdx[name] = len(bt.vertAliases)
	bt.vertAliases = append(bt.vertAliases, name)
	return len(bt.vertAliases) - 1
}

func (bt *bindingTable) addEdgeAlias(name string) int {
	if i, ok := bt.edgeIdx[name]; ok {
		return i
	}
	bt.edgeIdx[name] = len(bt.edgeAliases)
	bt.edgeAliases = append(bt.edgeAliases, name)
	return len(bt.edgeAliases) - 1
}

func (bt *bindingTable) addRelAlias(name string) int {
	if i, ok := bt.relIdx[name]; ok {
		return i
	}
	bt.relIdx[name] = len(bt.relAliases)
	bt.relAliases = append(bt.relAliases, name)
	return len(bt.relAliases) - 1
}

// FNV-1a, the fingerprint behind row deduplication and joins. Rows of
// one table all share the same arity per column family, so hashing the
// fixed-width binding words positionally is unambiguous without
// separators; relational values get a length prefix.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvWord(h uint64, w uint32) uint64 {
	h = (h ^ uint64(w&0xff)) * fnvPrime64
	h = (h ^ uint64((w>>8)&0xff)) * fnvPrime64
	h = (h ^ uint64((w>>16)&0xff)) * fnvPrime64
	h = (h ^ uint64(w>>24)) * fnvPrime64
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvWord(h, uint32(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// rowHash fingerprints a row's bindings. Replaces the old string-built
// rowKey: hashing fixed-width integers allocates nothing per row.
// Every hash hit is confirmed with rowsEqual, so a collision costs one
// comparison, never correctness.
func (bt *bindingTable) rowHash(r bindingRow) uint64 {
	h := fnvOffset64
	for _, v := range r.verts {
		h = fnvWord(h, uint32(v))
	}
	for _, e := range r.edges {
		h = fnvWord(h, uint32(e))
	}
	for _, rel := range r.rels {
		h = fnvString(h, rel.Key())
	}
	return h
}

// rowsEqual reports whether two rows of the same table carry identical
// bindings (multiplicity excluded).
func rowsEqual(a, b bindingRow) bool {
	for i := range a.verts {
		if a.verts[i] != b.verts[i] {
			return false
		}
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			return false
		}
	}
	for i := range a.rels {
		if a.rels[i].Key() != b.rels[i].Key() {
			return false
		}
	}
	return true
}

// compress merges rows with identical bindings, summing multiplicities
// (saturating). Kept rows stay in first-appearance order.
func (bt *bindingTable) compress() {
	if len(bt.rows) < 2 {
		return
	}
	// Fast path: a table of one vertex column dedups on the VID itself
	// — no hashing, no collision chains.
	if len(bt.vertAliases) == 1 && len(bt.edgeAliases) == 0 && len(bt.relAliases) == 0 {
		seen := make(map[graph.VID]int, len(bt.rows))
		out := bt.rows[:0]
		for _, r := range bt.rows {
			v := r.verts[0]
			if i, ok := seen[v]; ok {
				out[i].mult = satAdd(out[i].mult, r.mult)
				continue
			}
			seen[v] = len(out)
			out = append(out, r)
		}
		bt.rows = out
		return
	}
	// General path: hash fingerprints with chained exact confirmation.
	// chain[i] links out-row i to the previous out-row with the same
	// fingerprint (-1 ends the chain).
	seen := make(map[uint64]int32, len(bt.rows))
	chain := make([]int32, 0, len(bt.rows))
	out := bt.rows[:0]
	for _, r := range bt.rows {
		h := bt.rowHash(r)
		head, ok := seen[h]
		if ok {
			merged := false
			for i := head; i >= 0; i = chain[i] {
				if rowsEqual(out[i], r) {
					out[i].mult = satAdd(out[i].mult, r.mult)
					merged = true
					break
				}
			}
			if merged {
				continue
			}
		} else {
			head = -1
		}
		seen[h] = int32(len(out))
		chain = append(chain, head)
		out = append(out, r)
	}
	bt.rows = out
}

func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return math.MaxUint64
	}
	return s
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/a != b {
		return math.MaxUint64
	}
	return p
}

// buildBindings evaluates the FROM clause into a binding table,
// joining comma-separated path conjuncts on shared vertex aliases.
// sp is the enclosing SELECT's trace span (nil when untraced): each
// hop and join attaches a child span to it.
func (rs *runState) buildBindings(from []gsql.PathPattern, sp *trace.Span) (*bindingTable, error) {
	var result *bindingTable
	for i := range from {
		bt, err := rs.evalPath(&from[i], sp)
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = bt
			continue
		}
		jsp := sp.Start("join")
		jsp.SetInt("left_rows", int64(len(result.rows)))
		jsp.SetInt("right_rows", int64(len(bt.rows)))
		joined, err := joinTables(result, bt)
		if err != nil {
			jsp.End()
			return nil, err
		}
		jsp.SetInt("rows_out", int64(len(joined.rows)))
		jsp.End()
		result = joined
	}
	return result, nil
}

// targetFilter decides which vertices a hop target accepts.
type targetFilter func(graph.VID) bool

func (rs *runState) makeTargetFilter(ref gsql.StepRef) (targetFilter, error) {
	// Alias naming a vertex parameter pins the binding (Fig. 3's
	// "Customer:c" with parameter c).
	if pv, ok := rs.params[ref.Alias]; ok && pv.Kind() == value.KindVertex {
		want := graph.VID(pv.VertexID())
		base, err := rs.makeNameFilter(ref.Name)
		if err != nil {
			return nil, err
		}
		return func(v graph.VID) bool { return v == want && base(v) }, nil
	}
	return rs.makeNameFilter(ref.Name)
}

func (rs *runState) makeNameFilter(name string) (targetFilter, error) {
	g := rs.g
	if vt := g.Schema.VertexType(name); vt != nil {
		want := vt.ID
		return func(v graph.VID) bool { return g.VertexTypeOf(v).ID == want }, nil
	}
	if ids, ok := rs.vsets[name]; ok {
		set := rs.vsetLookup(name, ids)
		return func(v graph.VID) bool { return set[v] }, nil
	}
	if pv, ok := rs.params[name]; ok && pv.Kind() == value.KindVertex {
		want := graph.VID(pv.VertexID())
		return func(v graph.VID) bool { return v == want }, nil
	}
	return nil, fmt.Errorf("FROM: %q is not a vertex type, vertex set or vertex parameter", name)
}

// seedIDs resolves a pattern source endpoint.
func (rs *runState) seedIDs(ref gsql.StepRef) ([]graph.VID, error) {
	if pv, ok := rs.params[ref.Alias]; ok && pv.Kind() == value.KindVertex {
		vid := graph.VID(pv.VertexID())
		base, err := rs.makeNameFilter(ref.Name)
		if err != nil {
			return nil, err
		}
		if !base(vid) {
			return nil, nil // parameter vertex not in the seed set
		}
		return []graph.VID{vid}, nil
	}
	if ids, ok := rs.vsetOrType(ref.Name); ok {
		return ids, nil
	}
	if pv, ok := rs.params[ref.Name]; ok && pv.Kind() == value.KindVertex {
		return []graph.VID{graph.VID(pv.VertexID())}, nil
	}
	return nil, fmt.Errorf("FROM: %q is not a vertex type, vertex set or vertex parameter", ref.Name)
}

func (rs *runState) evalPath(pat *gsql.PathPattern, sp *trace.Span) (*bindingTable, error) {
	bt := newBindingTable()
	// Relational-table conjunct (Example 1): binds one row per table
	// row; graph hops cannot start from a relational alias.
	if _, isVSet := rs.vsetOrType(pat.Src.Name); !isVSet {
		if _, isParam := rs.params[pat.Src.Name]; !isParam {
			if tbl, ok := rs.e.relTable(pat.Src.Name); ok {
				if len(pat.Hops) > 0 {
					return nil, fmt.Errorf("FROM: relational table %q cannot be the source of a graph hop", pat.Src.Name)
				}
				bt.addRelAlias(pat.Src.Alias)
				bt.rows = make([]bindingRow, len(tbl.Rows))
				for i := range tbl.Rows {
					bt.rows[i] = bindingRow{rels: []value.Value{tbl.rowValue(i)}, mult: 1}
				}
				return bt, nil
			}
		}
	}
	seeds, err := rs.seedIDs(pat.Src)
	if err != nil {
		return nil, err
	}
	curCol := bt.addVertAlias(pat.Src.Alias)
	bt.rows = make([]bindingRow, len(seeds))
	seedArena := make([]graph.VID, len(seeds))
	copy(seedArena, seeds)
	for i := range seeds {
		bt.rows[i] = bindingRow{verts: seedArena[i : i+1 : i+1], mult: 1}
	}
	// distinct says no two rows can carry the same bindings, so a
	// counted hop's compress() would merge nothing. Seeds are distinct:
	// every vertex set is.
	distinct := true
	for hi := range pat.Hops {
		hop := &pat.Hops[hi]
		hsp := sp.Start("hop")
		hsp.SetStr("darpe", hop.DarpeText)
		hsp.SetInt("rows_in", int64(len(bt.rows)))
		filter, err := rs.makeTargetFilter(hop.Target)
		if err != nil {
			hsp.End()
			return nil, err
		}
		// A repeated alias closes a cycle: filter for equality instead
		// of binding a new column.
		boundCol, rebind := bt.vertIdx[hop.Target.Alias]
		var newCol int
		if !rebind {
			newCol = bt.addVertAlias(hop.Target.Alias)
		}
		sym, isSingle := hop.Darpe.(*darpe.Symbol)
		var next []bindingRow
		switch {
		case expandHopRef != nil:
			next, err = expandHopRef(rs, bt, hop, curCol, boundCol, rebind, filter)
		case isSingle:
			hsp.SetStr("kind", "adjacency")
			next, err = rs.expandSingleHop(bt, hop, sym, curCol, boundCol, rebind, filter, hsp)
		default:
			hsp.SetStr("kind", "counted")
			next, err = rs.expandCountedHop(bt, hop, curCol, boundCol, rebind, filter, hsp)
		}
		if err != nil {
			hsp.End()
			return nil, err
		}
		bt.rows = next
		if rebind {
			curCol = boundCol
		} else {
			curCol = newCol
		}
		// A counted hop binds each (row, target) once, so it keeps a
		// distinct table distinct. A single hop does only when it binds
		// the edge: parallel edges repeat a row otherwise, and the
		// wildcard meets a directed self-loop from both ends.
		compressed := "skipped"
		if isSingle {
			distinct = distinct && hop.EdgeAlias != "" && sym.Dir != darpe.AdornAny
		} else if !distinct {
			bt.compress()
			distinct = true
			compressed = "ran"
		}
		hsp.SetStr("compress", compressed)
		hsp.SetInt("rows_out", int64(len(bt.rows)))
		hsp.End()
	}
	return bt, nil
}

// defaultMinParallelRows is the binding-row count below which hop
// expansion stays serial — spawning the scan and fill goroutines costs
// more than the work they would split.
const defaultMinParallelRows = 32

// expandWorkers decides how many contiguous shards an nRows-row hop
// expansion splits into: 1 (serial) below the MinParallelRows
// threshold or when the engine is single-worker, else at most one
// shard per row.
func (rs *runState) expandWorkers(nRows int) int {
	minRows := rs.e.opts.MinParallelRows
	if minRows <= 0 {
		minRows = defaultMinParallelRows
	}
	if nRows < minRows {
		return 1
	}
	w := rs.e.workers()
	if w > nRows {
		w = nRows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// expandHopRef, when set, replaces both hop kinds' expansion with the
// row-by-row reference expansion of expand_ref_test.go, the oracle the
// two-pass builder is tested against. Nil outside tests.
var expandHopRef func(rs *runState, bt *bindingTable, hop *gsql.Hop, curCol, boundCol int, rebind bool, filter targetFilter) ([]bindingRow, error)

// hit is one output row found by a hop's scan pass: the input row it
// extends, the vertex it binds, and x — the edge id for a single hop,
// the index into the hop's reach list for a counted hop. 12 bytes.
type hit struct {
	row int32
	to  graph.VID
	x   uint32
}

// maxPooledHits caps the hit buffers hitPool keeps (768 KiB): a buffer
// one huge hop grew past it goes to the GC instead of staying pinned.
const maxPooledHits = 1 << 16

var hitPool = sync.Pool{New: func() any { return new([]hit) }}

// forShards runs fn over workers contiguous shards of [0, n)
// (w·n/workers boundaries), in parallel when there is more than one.
func forShards(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
}

// hopLayout says how the fill pass turns a hit into a row.
type hopLayout struct {
	rebind bool     // reuse the input row's verts (the target is bound)
	edge   bool     // append the hit's x as a new edge binding
	mults  []uint64 // counted hop: μ factor per reach index x; nil keeps row.mult
}

// buildHopRows is the two-pass builder behind both hop kinds. Pass 1
// shards rows over the workers; scan walks rows [lo, hi) once, appends
// one hit per output row to a pooled buffer and keeps its own
// cancellation stride. Pass 2 allocates the table once at Σhits rows,
// with one verts arena (and one edges arena when the hop binds an edge
// alias), and each shard fills its own range. Row slices are 3-index
// subslices of the arenas, so no row can grow into its neighbour. Shard
// ranges follow shard order, so the table is bit-identical to the
// serial pass at any worker count; on failure the error is the first
// failing shard's, the one the serial loop would have hit first.
func (rs *runState) buildHopRows(rows []bindingRow, lay hopLayout, hsp *trace.Span, scan func(lo, hi int, hits *[]hit) error) ([]bindingRow, error) {
	workers := rs.expandWorkers(len(rows))
	rs.res.Stats.ExpandShards += int64(workers)
	hsp.SetInt("shards", int64(workers))
	// Shard w's hits become output rows [off, off+len(hits)).
	type shard struct {
		hits *[]hit
		err  error
		off  int
	}
	shards := make([]shard, workers)
	for w := range shards {
		shards[w].hits = hitPool.Get().(*[]hit)
	}
	defer func() {
		for _, sh := range shards {
			if cap(*sh.hits) <= maxPooledHits {
				*sh.hits = (*sh.hits)[:0]
				hitPool.Put(sh.hits)
			}
		}
	}()
	forShards(len(rows), workers, func(w, lo, hi int) {
		shards[w].err = scan(lo, hi, shards[w].hits)
	})
	total := 0
	for w := range shards {
		if err := shards[w].err; err != nil {
			return nil, err
		}
		shards[w].off = total
		total += len(*shards[w].hits)
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]bindingRow, total)
	var vs, es int
	var verts []graph.VID
	var edges []graph.EID
	if !lay.rebind {
		vs = len(rows[0].verts) + 1
		verts = make([]graph.VID, total*vs)
	}
	if lay.edge {
		es = len(rows[0].edges) + 1
		edges = make([]graph.EID, total*es)
	}
	forShards(workers, workers, func(w, _, _ int) {
		o := shards[w].off
		for _, h := range *shards[w].hits {
			row := &rows[h.row]
			nr := &out[o]
			nr.mult = row.mult
			if lay.mults != nil {
				nr.mult = satMul(row.mult, lay.mults[h.x])
			}
			if lay.rebind {
				nr.verts = row.verts
			} else {
				v := verts[o*vs : (o+1)*vs : (o+1)*vs]
				copy(v, row.verts)
				v[vs-1] = h.to
				nr.verts = v
			}
			if lay.edge {
				e := edges[o*es : (o+1)*es : (o+1)*es]
				copy(e, row.edges)
				e[es-1] = graph.EID(h.x)
				nr.edges = e
			} else {
				nr.edges = row.edges
			}
			o++
		}
	})
	return out, nil
}

// expandSingleHop binds one edge traversal by adjacency expansion,
// sharded over binding rows across the engine's workers. A typed hop
// whose adornment resolves to one traversal direction reads only that
// (Type, Dir) segment of the run's CSR, base run then ext run: the
// same half-edges, in the same order, as filtering g.Neighbors. The
// wildcard keeps the g.Neighbors walk, which a segment walk would not
// shorten.
func (rs *runState) expandSingleHop(bt *bindingTable, hop *gsql.Hop, sym *darpe.Symbol, curCol, boundCol int, rebind bool, filter targetFilter, hsp *trace.Span) ([]bindingRow, error) {
	g := rs.g
	if hop.EdgeAlias != "" {
		bt.addEdgeAlias(hop.EdgeAlias)
	}
	var typeID = -1
	var adj *graph.CSR // non-nil: walk the (typeID, dir) segment
	var dir graph.Dir
	if sym.EdgeType != "" {
		et := g.Schema.EdgeType(sym.EdgeType)
		if et == nil {
			return nil, fmt.Errorf("FROM: unknown edge type %q", sym.EdgeType)
		}
		typeID = et.ID
		if d, ok := segmentDir(sym.Dir, et.Directed); ok {
			adj, dir = rs.adjacency(), d
		}
	}
	rows := bt.rows
	lay := hopLayout{rebind: rebind, edge: hop.EdgeAlias != ""}
	return rs.buildHopRows(rows, lay, hsp, func(lo, hi int, hits *[]hit) error {
		hs := *hits
		for ri := lo; ri < hi; ri++ {
			if (ri-lo)&4095 == 0 {
				if err := rs.checkCancel(); err != nil {
					*hits = hs
					return err
				}
			}
			row := &rows[ri]
			var runs [2][]graph.HalfEdge
			if adj != nil {
				runs[0], runs[1] = adj.Run(row.verts[curCol], int16(typeID), dir)
			} else {
				runs[0] = g.Neighbors(row.verts[curCol])
			}
			for _, run := range runs {
				for _, h := range run {
					if adj == nil && ((typeID >= 0 && int(h.Type) != typeID) || !adornMatches(sym.Dir, h.Dir)) {
						continue
					}
					if !filter(h.To) {
						continue
					}
					if rebind && row.verts[boundCol] != h.To {
						continue
					}
					hs = append(hs, hit{row: int32(ri), to: h.To, x: uint32(h.Edge)})
				}
			}
		}
		*hits = hs
		return nil
	})
}

// segmentDir is the one half-edge direction a typed hop's adornment
// traverses. ok is false only for the any-direction adornment over a
// directed type, which matches two segments.
func segmentDir(a darpe.Adorn, directed bool) (graph.Dir, bool) {
	switch a {
	case darpe.AdornFwd:
		return graph.DirOut, true
	case darpe.AdornRev:
		return graph.DirIn, true
	case darpe.AdornUnd:
		return graph.DirUndir, true
	}
	return graph.DirUndir, !directed
}

func adornMatches(a darpe.Adorn, d graph.Dir) bool {
	switch a {
	case darpe.AdornAny:
		return true
	case darpe.AdornFwd:
		return d == graph.DirOut
	case darpe.AdornRev:
		return d == graph.DirIn
	default:
		return d == graph.DirUndir
	}
}

// expandCountedHop evaluates a multi-edge DARPE hop. Under
// all-shortest-paths semantics it never materializes paths: it
// multiplies binding multiplicities by the SDMC counts of Theorem 6.1.
// Under the enumeration semantics it counts legal paths explicitly
// (exponential — the baselines of Section 7.1).
//
// The hop runs in phases: resolve every distinct source's Counts
// (resolveCounts), flatten the filtered targets of all sources into one
// reach list, and build the rows in two passes like a single hop.
func (rs *runState) expandCountedHop(bt *bindingTable, hop *gsql.Hop, curCol, boundCol int, rebind bool, filter targetFilter, hsp *trace.Span) ([]bindingRow, error) {
	rows := bt.rows
	rowSrc, counts, err := rs.resolveCounts(hop, rows, curCol, hsp)
	if err != nil {
		return nil, err
	}

	// One reach list for all sources, sized once: source i's filtered
	// targets (ascending VID, as Reached is) and their path
	// multiplicities sit at [off[i], off[i+1]).
	n := 0
	for _, c := range counts {
		n += len(c.Reached)
	}
	targets := make([]graph.VID, 0, n)
	mults := make([]uint64, 0, n)
	off := make([]int, len(counts)+1)
	for i, c := range counts {
		for _, t := range c.Reached {
			if c.Mult[t] > 0 && filter(t) {
				targets = append(targets, t)
				mults = append(mults, c.Mult[t])
			}
		}
		off[i+1] = len(targets)
	}

	lay := hopLayout{rebind: rebind, mults: mults}
	return rs.buildHopRows(rows, lay, hsp, func(lo, hi int, hits *[]hit) error {
		// Size the shard's hits once: a collection can empty hitPool
		// between runs, and regrowing by append would then copy the
		// buffer over and over. Each row yields its source's reach
		// list, or with rebind at most one hit (reach targets are
		// distinct).
		need := 0
		for ri := lo; ri < hi; ri++ {
			s := rowSrc[ri]
			n := off[s+1] - off[s]
			if rebind {
				n = min(n, 1)
			}
			need += n
		}
		hs := slices.Grow(*hits, need)
		for ri := lo; ri < hi; ri++ {
			if (ri-lo)&1023 == 0 {
				if err := rs.checkCancel(); err != nil {
					*hits = hs
					return err
				}
			}
			s := rowSrc[ri]
			for x := off[s]; x < off[s+1]; x++ {
				t := targets[x]
				if rebind && rows[ri].verts[boundCol] != t {
					continue
				}
				hs = append(hs, hit{row: int32(ri), to: t, x: uint32(x)})
			}
		}
		*hits = hs
		return nil
	})
}

// resolveCounts collects a counted hop's distinct source vertices (in
// first-appearance row order, so the parallel miss computation walks
// them the way the serial loop did) and resolves their Counts: engine
// cache first, then the misses in parallel across workers. rowSrc[i]
// is the index into counts of row i's source.
func (rs *runState) resolveCounts(hop *gsql.Hop, rows []bindingRow, curCol int, hsp *trace.Span) (rowSrc []int32, counts []*match.Counts, err error) {
	g := rs.g
	dsp := hsp.Start("dfa")
	d, dfaCached, err := rs.e.dfa(hop.DarpeText, hop.Darpe)
	if err != nil {
		dsp.End()
		return nil, nil, err
	}
	dsp.SetBool("cached", dfaCached)
	dsp.SetInt("states", int64(d.NumStates()))
	dsp.End()

	srcIdx := make(map[graph.VID]int32, len(rows))
	rowSrc = make([]int32, len(rows))
	var sources []graph.VID
	for ri := range rows {
		v := rows[ri].verts[curCol]
		i, ok := srcIdx[v]
		if !ok {
			i = int32(len(sources))
			srcIdx[v] = i
			sources = append(sources, v)
		}
		rowSrc[ri] = i
	}

	// Resolve counts: cache lookups, then kernel runs for the misses.
	// The epoch is the run's pinned snapshot epoch: lookups miss and
	// puts are dropped when it differs from the cache's head epoch, so
	// a reader pinned on an old snapshot neither sees newer counts nor
	// pollutes the cache with stale ones.
	epoch := g.Epoch()
	cache := rs.e.counts.Load()
	counts = make([]*match.Counts, len(sources))
	var missing []int
	for i, src := range sources {
		if c := cache.get(countKey{d: d, sem: rs.semantics, src: src}, epoch); c != nil {
			counts[i] = c
		} else {
			missing = append(missing, i)
		}
	}
	rs.res.Stats.CountCacheHits += int64(len(sources) - len(missing))
	rs.res.Stats.CountCacheMisses += int64(len(missing))
	hsp.SetInt("sources", int64(len(sources)))
	hsp.SetInt("cache_hits", int64(len(sources)-len(missing)))
	hsp.SetInt("cache_misses", int64(len(missing)))
	hsp.SetInt("sdmc_runs", int64(len(missing)))
	if len(missing) > 0 {
		if err := rs.countSources(hop, d, sources, missing, counts, hsp); err != nil {
			return nil, nil, err
		}
		rs.res.Stats.SDMCRuns += int64(len(missing))
		for _, i := range missing {
			cache.put(countKey{d: d, sem: rs.semantics, src: sources[i]}, counts[i], epoch)
		}
	}
	return rowSrc, counts, nil
}

// maxSDMCSpans caps the per-kernel-invocation child spans one hop
// records: a cold hop over a large seed set runs thousands of
// single-source counts, and a trace that large helps nobody. The hop
// span's sdmc_runs attribute always carries the true total; beyond the
// cap, invocations run untraced and sdmc_spans_dropped says how many.
const maxSDMCSpans = 16

// countSources runs the cache-missed single-source count runs for one
// counted hop, filling counts[i] for every i in missing. With more
// than one missing source and worker, runs spread over goroutines: an
// atomic source cursor, one match.SourceCounter (and so one pooled
// kernel scratch) per worker, cancellation observed at the kernel's
// own stride. Errors are reported in missing order — the first failing
// source is the one the serial loop would have failed on. A pattern
// whose product graph the kernel cannot address fails the hop once,
// before any run, as an ErrResourceLimit.
func (rs *runState) countSources(hop *gsql.Hop, d *darpe.DFA, sources []graph.VID, missing []int, counts []*match.Counts, hsp *trace.Span) error {
	g := rs.g
	// Span budget shared by the (possibly parallel) workers; spans
	// attach to hsp concurrently, which Span.Start permits.
	var spanBudget atomic.Int64
	spanBudget.Store(maxSDMCSpans)
	startKernelSpan := func(src graph.VID) *trace.Span {
		if hsp == nil {
			return nil
		}
		if spanBudget.Add(-1) < 0 {
			return nil
		}
		ssp := hsp.Start("sdmc")
		ssp.SetInt("src", int64(src))
		return ssp
	}
	if hsp != nil && len(missing) > maxSDMCSpans {
		hsp.SetInt("sdmc_spans_dropped", int64(len(missing)-maxSDMCSpans))
	}
	sem := rs.semantics
	limits := rs.e.opts.EnumLimits
	switch sem {
	case match.AllShortestPaths, match.ShortestExists:
	case match.NonRepeatedEdge, match.NonRepeatedVertex:
	case match.UnrestrictedBounded:
		fl, fixed := darpe.FixedLength(hop.Darpe)
		if !fixed {
			return fmt.Errorf("unrestricted semantics requires a fixed-unique-length pattern, -(%s)- is not", hop.DarpeText)
		}
		limits = match.EnumLimits{MaxSteps: limits.MaxSteps, MaxLen: fl}
	default:
		return fmt.Errorf("unsupported semantics %v", sem)
	}
	// needKernel: ASP and existence run the SDMC kernel (existence is
	// ASP with multiplicities collapsed); the rest enumerate.
	needKernel := sem == match.AllShortestPaths || sem == match.ShortestExists
	countOne := func(sc *match.SourceCounter, src graph.VID) (*match.Counts, error) {
		if needKernel {
			c, ok := sc.Count(src, rs.done)
			if !ok {
				return nil, cancelErr(rs.ctx)
			}
			if sem == match.ShortestExists {
				match.Existsify(c)
			}
			return c, nil
		}
		c, err := match.CountEnumCtx(rs.ctx, g, d, src, sem, limits)
		if err != nil {
			if rs.ctx.Err() != nil {
				return nil, cancelErr(rs.ctx)
			}
			if sem == match.UnrestrictedBounded {
				return nil, err
			}
			return nil, fmt.Errorf("pattern -(%s)- under %v: %w", hop.DarpeText, rs.e.opts.Semantics, err)
		}
		return c, nil
	}
	workers := max(1, min(rs.e.workers(), len(missing)))
	counters := make([]*match.SourceCounter, workers)
	if needKernel {
		for w := range counters {
			sc, err := match.NewSourceCounter(g, d)
			if err != nil {
				return fmt.Errorf("pattern -(%s)-: %w: %w", hop.DarpeText, ErrResourceLimit, err)
			}
			defer sc.Close()
			counters[w] = sc
		}
	}
	if workers == 1 {
		sc := counters[0]
		for _, i := range missing {
			ssp := startKernelSpan(sources[i])
			c, err := countOne(sc, sources[i])
			ssp.End()
			if err != nil {
				return err
			}
			counts[i] = c
		}
		return nil
	}
	var cursor int64 = -1
	var failed atomic.Bool
	errs := make([]error, len(missing))
	var wg sync.WaitGroup
	for _, sc := range counters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mi := atomic.AddInt64(&cursor, 1)
				if mi >= int64(len(missing)) || failed.Load() {
					return
				}
				i := missing[mi]
				ssp := startKernelSpan(sources[i])
				c, err := countOne(sc, sources[i])
				ssp.End()
				if err != nil {
					errs[mi] = err
					failed.Store(true)
					return
				}
				counts[i] = c
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// joinTables hash-joins two binding tables on their shared vertex
// aliases (natural join); multiplicities multiply.
func joinTables(a, b *bindingTable) (*bindingTable, error) {
	for _, ea := range b.edgeAliases {
		if _, dup := a.edgeIdx[ea]; dup {
			return nil, fmt.Errorf("FROM: edge alias %q bound in two conjuncts", ea)
		}
	}
	for _, ra := range b.relAliases {
		if _, dup := a.relIdx[ra]; dup {
			return nil, fmt.Errorf("FROM: table alias %q bound in two conjuncts", ra)
		}
	}
	var sharedA, sharedB []int
	var newB []int // columns of b not in a
	for bi, alias := range b.vertAliases {
		if ai, ok := a.vertIdx[alias]; ok {
			sharedA = append(sharedA, ai)
			sharedB = append(sharedB, bi)
		} else {
			newB = append(newB, bi)
		}
	}
	out := newBindingTable()
	for _, alias := range a.vertAliases {
		out.addVertAlias(alias)
	}
	for _, bi := range newB {
		out.addVertAlias(b.vertAliases[bi])
	}
	for _, alias := range a.edgeAliases {
		out.addEdgeAlias(alias)
	}
	for _, alias := range b.edgeAliases {
		out.addEdgeAlias(alias)
	}
	for _, alias := range a.relAliases {
		out.addRelAlias(alias)
	}
	for _, alias := range b.relAliases {
		out.addRelAlias(alias)
	}
	// Hash b on the shared key: fingerprint map plus chains, confirmed
	// by exact column comparison (same scheme as compress). Building
	// the chains backward keeps b's row order per key, preserving the
	// original join output order.
	hashCols := func(verts []graph.VID, cols []int) uint64 {
		h := fnvOffset64
		for _, c := range cols {
			h = fnvWord(h, uint32(verts[c]))
		}
		return h
	}
	sharedEqual := func(av, bv []graph.VID) bool {
		for k := range sharedA {
			if av[sharedA[k]] != bv[sharedB[k]] {
				return false
			}
		}
		return true
	}
	head := make(map[uint64]int32, len(b.rows))
	chain := make([]int32, len(b.rows))
	for i := len(b.rows) - 1; i >= 0; i-- {
		h := hashCols(b.rows[i].verts, sharedB)
		if hd, ok := head[h]; ok {
			chain[i] = hd
		} else {
			chain[i] = -1
		}
		head[h] = int32(i)
	}
	// Probe twice: count the output rows, then fill them into one arena
	// per column kind sized exactly, handing out 3-index subslices like
	// buildHopRows. Both passes visit matches in a's row order, then b's.
	probe := func(emit func(ra, rb *bindingRow)) {
		for i := range a.rows {
			ra := &a.rows[i]
			bi, ok := head[hashCols(ra.verts, sharedA)]
			if !ok {
				continue
			}
			for ; bi >= 0; bi = chain[bi] {
				if rb := &b.rows[bi]; sharedEqual(ra.verts, rb.verts) {
					emit(ra, rb)
				}
			}
		}
	}
	n := 0
	probe(func(_, _ *bindingRow) { n++ })
	if n == 0 {
		return out, nil
	}
	vs, es, ls := len(out.vertAliases), len(out.edgeAliases), len(out.relAliases)
	out.rows = make([]bindingRow, n)
	verts := make([]graph.VID, n*vs)
	edges := make([]graph.EID, n*es)
	rels := make([]value.Value, n*ls)
	o := 0
	probe(func(ra, rb *bindingRow) {
		v := verts[o*vs : (o+1)*vs : (o+1)*vs]
		k := copy(v, ra.verts)
		for _, c := range newB {
			v[k] = rb.verts[c]
			k++
		}
		e := edges[o*es : (o+1)*es : (o+1)*es]
		copy(e[copy(e, ra.edges):], rb.edges)
		r := rels[o*ls : (o+1)*ls : (o+1)*ls]
		copy(r[copy(r, ra.rels):], rb.rels)
		out.rows[o] = bindingRow{verts: v, edges: e, rels: r, mult: satMul(ra.mult, rb.mult)}
		o++
	})
	return out, nil
}
