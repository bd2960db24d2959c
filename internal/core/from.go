package core

import (
	"fmt"
	"math"
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

// rowEnv builds the expression environment for one binding row.
func (bt *bindingTable) rowEnv(r bindingRow) *env {
	en := &env{vars: make(map[string]value.Value, len(bt.vertAliases)+len(bt.edgeAliases)+len(bt.relAliases))}
	bt.bindRow(en, r)
	return en
}

// bindRow (re)binds a row's aliases into an existing environment,
// letting hot loops (WHERE filtering, ACCUM shards) reuse one
// environment instead of allocating a map per row. ACCUM-clause locals
// live in env.locals and are reset between rows by the caller.
func (bt *bindingTable) bindRow(en *env, r bindingRow) {
	for i, a := range bt.vertAliases {
		en.vars[a] = value.NewVertex(int64(r.verts[i]))
	}
	for i, a := range bt.edgeAliases {
		en.vars[a] = value.NewEdge(int64(r.edges[i]))
	}
	for i, a := range bt.relAliases {
		en.vars[a] = r.rels[i]
	}
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
	bt.rows = make([]bindingRow, 0, len(seeds))
	for _, s := range seeds {
		bt.rows = append(bt.rows, bindingRow{verts: []graph.VID{s}, mult: 1})
	}
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
		if isSingle {
			hsp.SetStr("kind", "adjacency")
			next, err = rs.expandSingleHop(bt, hop, sym, curCol, boundCol, rebind, filter, hsp)
		} else {
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
		if !isSingle {
			bt.compress()
		}
		hsp.SetInt("rows_out", int64(len(bt.rows)))
		hsp.End()
	}
	return bt, nil
}

// defaultMinParallelRows is the binding-row count below which hop
// expansion stays serial — goroutine spawn and shard concatenation
// cost more than the work they would split.
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

// shardRows fans an expansion over contiguous row shards and
// concatenates the per-shard outputs in shard order, which is exactly
// the serial row order — binding tables come out bit-identical to the
// single-worker path. fn owns rows [lo, hi) and keeps its own
// cancellation stride. On failure the error reported is the first
// failing shard's in shard order, the one the serial loop would have
// hit first.
func shardRows(nRows, workers int, fn func(lo, hi int) ([]bindingRow, error)) ([]bindingRow, error) {
	if workers <= 1 {
		return fn(0, nRows)
	}
	outs := make([][]bindingRow, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*nRows/workers, (w+1)*nRows/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			outs[w], errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	next := make([]bindingRow, 0, total)
	for _, o := range outs {
		next = append(next, o...)
	}
	return next, nil
}

// expandSingleHop binds one edge traversal by adjacency expansion,
// sharded over binding rows across the engine's workers.
func (rs *runState) expandSingleHop(bt *bindingTable, hop *gsql.Hop, sym *darpe.Symbol, curCol, boundCol int, rebind bool, filter targetFilter, hsp *trace.Span) ([]bindingRow, error) {
	g := rs.g
	var edgeCol = -1
	if hop.EdgeAlias != "" {
		edgeCol = bt.addEdgeAlias(hop.EdgeAlias)
	}
	var typeID = -1
	if sym.EdgeType != "" {
		et := g.Schema.EdgeType(sym.EdgeType)
		if et == nil {
			return nil, fmt.Errorf("FROM: unknown edge type %q", sym.EdgeType)
		}
		typeID = et.ID
	}
	rows := bt.rows
	workers := rs.expandWorkers(len(rows))
	rs.res.Stats.ExpandShards += int64(workers)
	hsp.SetInt("shards", int64(workers))
	return shardRows(len(rows), workers, func(lo, hi int) ([]bindingRow, error) {
		next := make([]bindingRow, 0, hi-lo) // ≥1 expansion per row is the common case
		for ri := lo; ri < hi; ri++ {
			if (ri-lo)&4095 == 0 {
				if err := rs.checkCancel(); err != nil {
					return nil, err
				}
			}
			row := rows[ri]
			v := row.verts[curCol]
			for _, h := range g.Neighbors(v) {
				if typeID >= 0 && int(h.Type) != typeID {
					continue
				}
				if !adornMatches(sym.Dir, h.Dir) {
					continue
				}
				if !filter(h.To) {
					continue
				}
				if rebind && row.verts[boundCol] != h.To {
					continue
				}
				nr := bindingRow{mult: row.mult}
				if rebind {
					nr.verts = row.verts
				} else {
					nr.verts = append(append(make([]graph.VID, 0, len(row.verts)+1), row.verts...), h.To)
				}
				if edgeCol >= 0 {
					nr.edges = append(append(make([]graph.EID, 0, len(row.edges)+1), row.edges...), h.Edge)
				} else {
					nr.edges = row.edges
				}
				next = append(next, nr)
			}
		}
		return next, nil
	})
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

// reach is the per-source result of a counted hop after target
// filtering: the targets the hop can bind (ascending VID) and the
// path multiplicity toward each.
type reach struct {
	targets []graph.VID
	mults   []uint64
}

// expandCountedHop evaluates a multi-edge DARPE hop. Under
// all-shortest-paths semantics it never materializes paths: it
// multiplies binding multiplicities by the SDMC counts of Theorem 6.1.
// Under the enumeration semantics it counts legal paths explicitly
// (exponential — the baselines of Section 7.1).
//
// The hop runs in phases: collect the distinct source vertices (first-
// appearance row order), resolve their Counts — engine cache first,
// then the misses in parallel across workers — build per-source reach
// lists from the sparse Counts.Reached, and finally do the cheap
// sharded row-expansion pass.
func (rs *runState) expandCountedHop(bt *bindingTable, hop *gsql.Hop, curCol, boundCol int, rebind bool, filter targetFilter, hsp *trace.Span) ([]bindingRow, error) {
	g := rs.g
	dsp := hsp.Start("dfa")
	d, dfaCached, err := rs.e.dfa(hop.DarpeText, hop.Darpe)
	if err != nil {
		dsp.End()
		return nil, err
	}
	dsp.SetBool("cached", dfaCached)
	dsp.SetInt("states", int64(d.NumStates()))
	dsp.End()
	rows := bt.rows

	// Distinct sources, in first-appearance row order so the parallel
	// miss computation walks them the same way the serial loop did.
	srcIdx := make(map[graph.VID]int, len(rows))
	var sources []graph.VID
	for _, row := range rows {
		v := row.verts[curCol]
		if _, ok := srcIdx[v]; !ok {
			srcIdx[v] = len(sources)
			sources = append(sources, v)
		}
	}

	// Resolve counts: cache lookups, then kernel runs for the misses.
	// The epoch is the run's pinned snapshot epoch: lookups miss and
	// puts are dropped when it differs from the cache's head epoch, so
	// a reader pinned on an old snapshot neither sees newer counts nor
	// pollutes the cache with stale ones.
	epoch := g.Epoch()
	cache := rs.e.counts.Load()
	counts := make([]*match.Counts, len(sources))
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
			return nil, err
		}
		rs.res.Stats.SDMCRuns += int64(len(missing))
		for _, i := range missing {
			cache.put(countKey{d: d, sem: rs.semantics, src: sources[i]}, counts[i], epoch)
		}
	}

	// Per-source reach lists: walk only the recorded targets, not all
	// V Dist entries. Reached is sorted ascending, so targets come out
	// in the same order the old dense scan produced.
	reaches := make([]reach, len(sources))
	for i, c := range counts {
		r := &reaches[i]
		for _, t := range c.Reached {
			if c.Mult[t] > 0 && filter(t) {
				r.targets = append(r.targets, t)
				r.mults = append(r.mults, c.Mult[t])
			}
		}
	}

	// Row expansion: every source's reach is resolved, so each row is
	// a multiply-and-append — shard it like a single hop.
	workers := rs.expandWorkers(len(rows))
	rs.res.Stats.ExpandShards += int64(workers)
	hsp.SetInt("shards", int64(workers))
	return shardRows(len(rows), workers, func(lo, hi int) ([]bindingRow, error) {
		next := make([]bindingRow, 0, hi-lo)
		for ri := lo; ri < hi; ri++ {
			if (ri-lo)&1023 == 0 {
				if err := rs.checkCancel(); err != nil {
					return nil, err
				}
			}
			row := rows[ri]
			r := &reaches[srcIdx[row.verts[curCol]]]
			for i, t := range r.targets {
				if rebind {
					if row.verts[boundCol] != t {
						continue
					}
					next = append(next, bindingRow{verts: row.verts, edges: row.edges, mult: satMul(row.mult, r.mults[i])})
					continue
				}
				nr := bindingRow{
					verts: append(append(make([]graph.VID, 0, len(row.verts)+1), row.verts...), t),
					edges: row.edges,
					mult:  satMul(row.mult, r.mults[i]),
				}
				next = append(next, nr)
			}
		}
		return next, nil
	})
}

// maxSDMCSpans caps the per-kernel-invocation child spans one hop
// records: a cold hop over a large seed set runs thousands of
// single-source counts, and a trace that large helps nobody. The hop
// span's sdmc_runs attribute always carries the true total; beyond the
// cap, invocations run untraced and sdmc_spans_dropped says how many.
const maxSDMCSpans = 16

// countSources runs the cache-missed single-source count runs for one
// counted hop, filling counts[i] for every i in missing. With more
// than one missing source and worker, runs spread over goroutines in
// the CountASPAllParallel pattern: an atomic source cursor, one pooled
// kernel scratch per worker (via match.SourceCounter), cancellation
// observed at the kernel's own stride. Errors are reported in missing
// order — the first failing source is the one the serial loop would
// have failed on.
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
	workers := rs.e.workers()
	if workers > len(missing) {
		workers = len(missing)
	}
	if workers <= 1 {
		var sc *match.SourceCounter
		if needKernel {
			sc = match.NewSourceCounter(g, d)
			defer sc.Close()
		}
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc *match.SourceCounter
			if needKernel {
				sc = match.NewSourceCounter(g, d)
				defer sc.Close()
			}
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
	for _, ra := range a.rows {
		h := hashCols(ra.verts, sharedA)
		bi, ok := head[h]
		if !ok {
			continue
		}
		for ; bi >= 0; bi = chain[bi] {
			rb := b.rows[bi]
			if !sharedEqual(ra.verts, rb.verts) {
				continue
			}
			nr := bindingRow{
				verts: append(make([]graph.VID, 0, len(out.vertAliases)), ra.verts...),
				edges: append(append(make([]graph.EID, 0, len(out.edgeAliases)), ra.edges...), rb.edges...),
				rels:  append(append(make([]value.Value, 0, len(out.relAliases)), ra.rels...), rb.rels...),
				mult:  satMul(ra.mult, rb.mult),
			}
			for _, c := range newB {
				nr.verts = append(nr.verts, rb.verts[c])
			}
			out.rows = append(out.rows, nr)
		}
	}
	return out, nil
}
