package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// runSelect executes one SELECT block: FROM → WHERE → ACCUM (snapshot
// map/reduce) → POST-ACCUM → outputs. assignTo names the vertex-set
// variable for the "S = SELECT v ..." form (empty for standalone
// SELECT ... INTO blocks).
func (rs *runState) runSelect(sel *gsql.SelectExpr, assignTo string) error {
	sp := rs.prof.Start("select")
	defer sp.End()
	bt, err := rs.buildBindings(sel.From, sp)
	if err != nil {
		return err
	}
	if err := rs.runWhere(sel, bt, sp); err != nil {
		return err
	}
	rs.res.Stats.Selects++
	rs.res.Stats.BindingRows += int64(len(bt.rows))
	sp.SetInt("binding_rows", int64(len(bt.rows)))
	if len(sel.Accum) > 0 {
		asp := sp.Start("accum")
		asp.SetInt("rows", int64(len(bt.rows)))
		var err error
		if cs := rs.compiledSel(sel); cs != nil && cs.acc != nil {
			asp.SetBool("compiled", true)
			rs.res.Stats.AccumCompiledStmts += int64(len(sel.Accum))
			err = rs.execAccumKernels([]*kprogram{cs.acc}, bt, asp)
		} else {
			asp.SetBool("compiled", false)
			rs.res.Stats.AccumInterpretedStmts += int64(len(sel.Accum))
			err = rs.execAccumClause(sel.Accum, bt, asp)
		}
		asp.End()
		if err != nil {
			return fmt.Errorf("ACCUM: %w", err)
		}
	}
	return rs.runPostAndOutputs(sel, bt, assignTo, sp)
}

// runPostAndOutputs runs the POST-ACCUM clause (compiled or
// interpreted) and the block's outputs — the per-block tail shared by
// the sequential path and fused groups.
func (rs *runState) runPostAndOutputs(sel *gsql.SelectExpr, bt *bindingTable, assignTo string, sp *trace.Span) error {
	if len(sel.PostAccum) > 0 {
		psp := sp.Start("post_accum")
		psp.SetInt("statements", int64(len(sel.PostAccum)))
		var err error
		if cs := rs.compiledSel(sel); cs != nil && cs.post != nil {
			psp.SetBool("compiled", true)
			rs.res.Stats.AccumCompiledStmts += int64(len(sel.PostAccum))
			err = rs.execPostAccumCompiled(cs.post, sel.PostAccum, bt)
		} else {
			psp.SetBool("compiled", false)
			rs.res.Stats.AccumInterpretedStmts += int64(len(sel.PostAccum))
			err = rs.execPostAccumClause(sel.PostAccum, bt)
		}
		psp.End()
		if err != nil {
			return fmt.Errorf("POST-ACCUM: %w", err)
		}
	}
	osp := sp.Start("output")
	err := rs.emitOutputs(sel, bt, assignTo)
	osp.End()
	return err
}

// runWhere filters the binding table by the block's WHERE clause, if
// any: through the compiled predicate when the plan holds one, else
// through the interpreter.
func (rs *runState) runWhere(sel *gsql.SelectExpr, bt *bindingTable, sp *trace.Span) error {
	if sel.Where == nil {
		return nil
	}
	wsp := sp.Start("where")
	wsp.SetInt("rows_in", int64(len(bt.rows)))
	var err error
	if cs := rs.compiledSel(sel); cs != nil && cs.where != nil {
		wsp.SetBool("compiled", true)
		err = rs.filterWhereCompiled(cs.whereProg, cs.where, bt)
	} else {
		wsp.SetBool("compiled", false)
		err = rs.filterWhere(bt, sel.Where)
	}
	wsp.SetInt("rows_out", int64(len(bt.rows)))
	wsp.End()
	return err
}

func (rs *runState) filterWhere(bt *bindingTable, where gsql.Expr) error {
	out := bt.rows[:0]
	en := &env{vars: map[string]value.Value{}}
	for ri, row := range bt.rows {
		if ri&4095 == 0 {
			if err := rs.checkCancel(); err != nil {
				return err
			}
		}
		bt.bindRow(en, row)
		ok, err := rs.eval(where, en)
		if err != nil {
			return fmt.Errorf("WHERE: %w", err)
		}
		if ok.Truthy() {
			out = append(out, row)
		}
	}
	bt.rows = out
	return nil
}

// ---- ACCUM: snapshot map/reduce ------------------------------------------------

// deltas holds one worker's staged accumulator inputs (the Map phase
// of Section 4.3); the Reduce phase merges them into the live stores.
type deltas struct {
	rs      *runState
	globals map[string]accum.Accumulator
	vaccs   map[string]map[graph.VID]accum.Accumulator
}

func newDeltas(rs *runState) *deltas {
	return &deltas{
		rs:      rs,
		globals: map[string]accum.Accumulator{},
		vaccs:   map[string]map[graph.VID]accum.Accumulator{},
	}
}

func (d *deltas) global(name string) (accum.Accumulator, error) {
	if a, ok := d.globals[name]; ok {
		return a, nil
	}
	live, ok := d.rs.globals[name]
	if !ok {
		return nil, fmt.Errorf("undeclared global accumulator @@%s", name)
	}
	a, err := accum.New(live.Spec())
	if err != nil {
		return nil, err
	}
	d.globals[name] = a
	return a, nil
}

func (d *deltas) vacc(name string, v graph.VID) (accum.Accumulator, error) {
	m := d.vaccs[name]
	if m == nil {
		if _, ok := d.rs.vaccs[name]; !ok {
			return nil, fmt.Errorf("undeclared vertex accumulator @%s", name)
		}
		m = map[graph.VID]accum.Accumulator{}
		d.vaccs[name] = m
	}
	if a, ok := m[v]; ok {
		return a, nil
	}
	a, err := accum.New(d.rs.vaccs[name].spec)
	if err != nil {
		return nil, err
	}
	m[v] = a
	return a, nil
}

// merge folds the worker delta into the live accumulator stores.
func (d *deltas) merge() error {
	for name, a := range d.globals {
		if err := d.rs.globals[name].Merge(a); err != nil {
			return err
		}
	}
	for name, m := range d.vaccs {
		store := d.rs.vaccs[name]
		for v, a := range m {
			live, err := store.get(v)
			if err != nil {
				return err
			}
			if err := live.Merge(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// execAccumClause runs the ACCUM clause: one acc-execution per binding
// row (per Appendix A, one multiplicity-adjusted execution per
// compressed row; with the shortcut disabled, μ literal executions).
// Rows shard across workers; every acc-execution reads the same
// accumulator snapshot (the live stores), stages inputs into
// worker-local deltas, and the deltas merge after all executions
// complete.
func (rs *runState) execAccumClause(stmts []gsql.AccStmt, bt *bindingTable, sp *trace.Span) error {
	workers := rs.e.workers()
	if workers > len(bt.rows) {
		workers = len(bt.rows)
	}
	if workers < 1 {
		workers = 1
	}
	sp.SetInt("workers", int64(workers))
	if workers <= 1 {
		d := newDeltas(rs)
		if err := rs.accumShard(stmts, bt, bt.rows, d); err != nil {
			return err
		}
		return d.merge()
	}
	shardSize := (len(bt.rows) + workers - 1) / workers
	ds := make([]*deltas, 0, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * shardSize
		hi := lo + shardSize
		if hi > len(bt.rows) {
			hi = len(bt.rows)
		}
		if lo >= hi {
			break
		}
		d := newDeltas(rs)
		ds = append(ds, d)
		wg.Add(1)
		go func(w int, rows []bindingRow, d *deltas) {
			defer wg.Done()
			errs[w] = rs.accumShard(stmts, bt, rows, d)
		}(w, bt.rows[lo:hi], d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Deterministic reduce order (worker index); irrelevant for
	// order-invariant accumulators, stabilizing for the rest.
	for _, d := range ds {
		if err := d.merge(); err != nil {
			return err
		}
	}
	return nil
}

func (rs *runState) accumShard(stmts []gsql.AccStmt, bt *bindingTable, rows []bindingRow, d *deltas) error {
	// One environment per shard, rebound per row; clause locals reset
	// between acc-executions.
	en := &env{vars: map[string]value.Value{}, locals: map[string]value.Value{}}
	exec := func(row bindingRow, mult uint64) error {
		bt.bindRow(en, row)
		clear(en.locals)
		return rs.accStmtSeq(stmts, en, mult, d)
	}
	for ri, row := range rows {
		// Cancellation checkpoint on a stride: each shard polls the
		// run's done channel so an expired deadline stops all ACCUM
		// workers instead of letting them finish the phase.
		if ri&255 == 0 {
			if err := rs.checkCancel(); err != nil {
				return err
			}
		}
		if rs.e.opts.NoMultiplicityShortcut {
			// Ablation: μ literal acc-executions. Refuse absurd
			// replication counts instead of looping for years — the
			// shortcut being disabled is exactly what makes them
			// intractable (Appendix A).
			const maxReplay = 1 << 32
			if row.mult > maxReplay {
				return fmt.Errorf("binding multiplicity %d exceeds the %d replay limit with the multiplicity shortcut disabled", row.mult, uint64(maxReplay))
			}
			for i := uint64(0); i < row.mult; i++ {
				if i&8191 == 0 {
					if err := rs.checkCancel(); err != nil {
						return err
					}
				}
				if err := exec(row, 1); err != nil {
					return err
				}
			}
			continue
		}
		if err := exec(row, row.mult); err != nil {
			return err
		}
	}
	return nil
}

func (rs *runState) accStmtSeq(stmts []gsql.AccStmt, en *env, mult uint64, d *deltas) error {
	for i := range stmts {
		st := &stmts[i]
		if st.Cond != nil {
			c, err := rs.eval(st.Cond, en)
			if err != nil {
				return err
			}
			branch := st.Then
			if !c.Truthy() {
				branch = st.Else
			}
			if err := rs.accStmtSeq(branch, en, mult, d); err != nil {
				return err
			}
			continue
		}
		switch lhs := st.Lhs.(type) {
		case *gsql.Ident:
			if st.Op != "=" {
				return fmt.Errorf("local variable %s supports '=' only", lhs.Name)
			}
			v, err := rs.eval(st.Rhs, en)
			if err != nil {
				return err
			}
			en.locals[lhs.Name] = v
		case *gsql.GlobalAccRef:
			if st.Op != "+=" {
				return fmt.Errorf("'=' on @@%s inside ACCUM would race across acc-executions; assign at statement level or in POST-ACCUM", lhs.Name)
			}
			v, err := rs.eval(st.Rhs, en)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // null inputs are skipped (CASE without ELSE)
			}
			a, err := d.global(lhs.Name)
			if err != nil {
				return err
			}
			if err := a.Input(v, mult); err != nil {
				return fmt.Errorf("@@%s += : %w", lhs.Name, err)
			}
		case *gsql.VertexAccRef:
			if st.Op != "+=" {
				return fmt.Errorf("'=' on @%s inside ACCUM would race across acc-executions (snapshot semantics); use POST-ACCUM", lhs.Name)
			}
			vv, err := rs.eval(lhs.Vertex, en)
			if err != nil {
				return err
			}
			if vv.Kind() != value.KindVertex {
				return fmt.Errorf("@%s receiver is %s, not a vertex", lhs.Name, vv.Kind())
			}
			v, err := rs.eval(st.Rhs, en)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // null inputs are skipped (CASE without ELSE)
			}
			a, err := d.vacc(lhs.Name, graph.VID(vv.VertexID()))
			if err != nil {
				return err
			}
			if err := a.Input(v, mult); err != nil {
				return fmt.Errorf("@%s += : %w", lhs.Name, err)
			}
		default:
			return fmt.Errorf("invalid ACCUM statement target %T", st.Lhs)
		}
	}
	return nil
}

// ---- POST-ACCUM ------------------------------------------------------------------

// execPostAccumClause runs the POST-ACCUM clause (Section 4.4): each
// statement executes once per distinct vertex bound to the (single)
// vertex alias it references; statements referencing no alias execute
// once. Within one vertex the statements run sequentially and vertex
// accumulator writes apply immediately (each vertex is visited once,
// so no races); @acc' reads the value the accumulator had at clause
// start. Global '+=' inputs are staged and reduced after the clause,
// preserving snapshot semantics across vertices.
func (rs *runState) execPostAccumClause(stmts []gsql.AccStmt, bt *bindingTable) error {
	d := newDeltas(rs)
	// Group statements by referenced alias, preserving order within a
	// group.
	groups := map[string][]*gsql.AccStmt{}
	var groupOrder []string
	for i := range stmts {
		st := &stmts[i]
		alias, err := rs.postAccumAlias(st, bt)
		if err != nil {
			return err
		}
		if _, seen := groups[alias]; !seen {
			groupOrder = append(groupOrder, alias)
		}
		groups[alias] = append(groups[alias], st)
	}
	for _, alias := range groupOrder {
		gstmts := groups[alias]
		if alias == "" {
			if err := rs.postAccumForVertex(gstmts, "", 0, false, d); err != nil {
				return err
			}
			continue
		}
		col := bt.vertIdx[alias]
		seen := map[graph.VID]bool{}
		for ri, row := range bt.rows {
			if ri&1023 == 0 {
				if err := rs.checkCancel(); err != nil {
					return err
				}
			}
			v := row.verts[col]
			if seen[v] {
				continue
			}
			seen[v] = true
			if err := rs.postAccumForVertex(gstmts, alias, v, true, d); err != nil {
				return err
			}
		}
	}
	return d.merge()
}

// postAccumAlias returns the unique vertex alias a statement
// references ("" if none); two aliases in one statement is an error,
// as is referencing an edge alias (POST-ACCUM runs per distinct
// vertex — edges have no per-vertex identity there).
func (rs *runState) postAccumAlias(st *gsql.AccStmt, bt *bindingTable) (string, error) {
	found := ""
	var walk func(e gsql.Expr) error
	walk = func(e gsql.Expr) error {
		switch n := e.(type) {
		case *gsql.Ident:
			if _, ok := bt.edgeIdx[n.Name]; ok {
				return fmt.Errorf("POST-ACCUM cannot reference edge alias %q; edge attributes are only in scope in ACCUM", n.Name)
			}
			if _, ok := bt.vertIdx[n.Name]; ok {
				if found != "" && found != n.Name {
					return fmt.Errorf("POST-ACCUM statement references two vertex aliases (%s, %s); it must reference at most one", found, n.Name)
				}
				found = n.Name
			}
			return nil
		case *gsql.Binary:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *gsql.Unary:
			return walk(n.X)
		case *gsql.Call:
			if n.Recv != nil {
				if err := walk(n.Recv); err != nil {
					return err
				}
			}
			for _, a := range n.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
			return nil
		case *gsql.VertexAccRef:
			return walk(n.Vertex)
		case *gsql.AttrRef:
			return walk(n.Obj)
		case *gsql.TupleExpr:
			for _, sub := range n.Elems {
				if err := walk(sub); err != nil {
					return err
				}
			}
			return nil
		case *gsql.ArrowTuple:
			for _, sub := range append(append([]gsql.Expr{}, n.Keys...), n.Vals...) {
				if err := walk(sub); err != nil {
					return err
				}
			}
			return nil
		case *gsql.CaseExpr:
			for _, arm := range n.Whens {
				if err := walk(arm.Cond); err != nil {
					return err
				}
				if err := walk(arm.Then); err != nil {
					return err
				}
			}
			if n.Else != nil {
				return walk(n.Else)
			}
			return nil
		default:
			return nil
		}
	}
	var walkStmt func(st *gsql.AccStmt) error
	walkStmt = func(st *gsql.AccStmt) error {
		if st.Cond != nil {
			if err := walk(st.Cond); err != nil {
				return err
			}
			for i := range st.Then {
				if err := walkStmt(&st.Then[i]); err != nil {
					return err
				}
			}
			for i := range st.Else {
				if err := walkStmt(&st.Else[i]); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(st.Lhs); err != nil {
			return err
		}
		return walk(st.Rhs)
	}
	if err := walkStmt(st); err != nil {
		return "", err
	}
	return found, nil
}

func (rs *runState) postAccumForVertex(stmts []*gsql.AccStmt, alias string, v graph.VID, hasVertex bool, d *deltas) error {
	en := &env{vars: map[string]value.Value{}, locals: map[string]value.Value{}, prevVacc: map[prevKey]value.Value{}}
	if hasVertex {
		en.vars[alias] = value.NewVertex(int64(v))
	}
	return rs.postAccumStmtSeq(stmts, en, d)
}

func (rs *runState) postAccumStmtSeq(stmts []*gsql.AccStmt, en *env, d *deltas) error {
	for _, st := range stmts {
		if st.Cond != nil {
			c, err := rs.eval(st.Cond, en)
			if err != nil {
				return err
			}
			branch := st.Then
			if !c.Truthy() {
				branch = st.Else
			}
			refs := make([]*gsql.AccStmt, len(branch))
			for i := range branch {
				refs[i] = &branch[i]
			}
			if err := rs.postAccumStmtSeq(refs, en, d); err != nil {
				return err
			}
			continue
		}
		switch lhs := st.Lhs.(type) {
		case *gsql.Ident:
			if st.Op != "=" {
				return fmt.Errorf("local variable %s supports '=' only", lhs.Name)
			}
			val, err := rs.eval(st.Rhs, en)
			if err != nil {
				return err
			}
			en.locals[lhs.Name] = val
		case *gsql.GlobalAccRef:
			if st.Op != "+=" {
				return fmt.Errorf("'=' on @@%s inside POST-ACCUM would race across vertices; assign at statement level", lhs.Name)
			}
			val, err := rs.eval(st.Rhs, en)
			if err != nil {
				return err
			}
			a, err := d.global(lhs.Name)
			if err != nil {
				return err
			}
			if err := a.Input(val, 1); err != nil {
				return err
			}
		case *gsql.VertexAccRef:
			vv, err := rs.eval(lhs.Vertex, en)
			if err != nil {
				return err
			}
			if vv.Kind() != value.KindVertex {
				return fmt.Errorf("@%s receiver is %s, not a vertex", lhs.Name, vv.Kind())
			}
			vid := graph.VID(vv.VertexID())
			store, ok := rs.vaccs[lhs.Name]
			if !ok {
				return fmt.Errorf("undeclared vertex accumulator @%s", lhs.Name)
			}
			// Record the clause-start value for @acc' before the
			// first write.
			pk := prevKey{vid, lhs.Name}
			if _, recorded := en.prevVacc[pk]; !recorded {
				pv, err := store.peekValue(vid)
				if err != nil {
					return err
				}
				en.prevVacc[pk] = pv
			}
			val, err := rs.eval(st.Rhs, en)
			if err != nil {
				return err
			}
			a, err := store.get(vid)
			if err != nil {
				return err
			}
			if st.Op == "=" {
				if err := a.Assign(val); err != nil {
					return fmt.Errorf("@%s = : %w", lhs.Name, err)
				}
			} else {
				if err := a.Input(val, 1); err != nil {
					return fmt.Errorf("@%s += : %w", lhs.Name, err)
				}
			}
		default:
			return fmt.Errorf("invalid POST-ACCUM statement target %T", st.Lhs)
		}
	}
	return nil
}

// ---- outputs ------------------------------------------------------------------------

func (rs *runState) emitOutputs(sel *gsql.SelectExpr, bt *bindingTable, assignTo string) error {
	if assignTo != "" {
		return rs.emitVertexSet(sel, bt, assignTo)
	}
	grouped := len(sel.GroupBy) > 0 || rs.outputsHaveAggregates(sel)
	for oi := range sel.Outputs {
		out := &sel.Outputs[oi]
		if out.Into == "" {
			// A standalone SELECT whose single output is a bare
			// vertex alias and has no INTO still defines a vertex set
			// named after the alias — reject instead, demanding INTO.
			return fmt.Errorf("standalone SELECT outputs need INTO <table>")
		}
		var t *Table
		var err error
		if grouped {
			t, err = rs.emitGrouped(sel, out, bt)
		} else {
			t, err = rs.emitDistinctCombos(sel, out, bt)
		}
		if err != nil {
			return err
		}
		t.Name = out.Into
		rs.res.Tables[out.Into] = t
		// A single bare-vertex-alias column doubles as a vertex set
		// usable by later FROM clauses (Fig. 3's
		// OthersWithCommonLikes).
		if len(out.Items) == 1 {
			if id, ok := out.Items[0].Expr.(*gsql.Ident); ok {
				if col, ok := bt.vertIdx[id.Name]; ok {
					rs.setVSet(out.Into, distinctColumn(bt, col))
				}
			}
		}
	}
	return nil
}

func distinctColumn(bt *bindingTable, col int) []graph.VID {
	seen := map[graph.VID]bool{}
	var out []graph.VID
	for _, row := range bt.rows {
		v := row.verts[col]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// emitVertexSet handles the S = SELECT v ... form: the result is the
// set of distinct bindings of the selected alias, ordered/limited if
// requested.
func (rs *runState) emitVertexSet(sel *gsql.SelectExpr, bt *bindingTable, assignTo string) error {
	alias := sel.Outputs[0].Items[0].Expr.(*gsql.Ident).Name
	col, ok := bt.vertIdx[alias]
	if !ok {
		return fmt.Errorf("SELECT %s: %q is not a pattern alias", alias, alias)
	}
	ids := distinctColumn(bt, col)
	if len(sel.OrderBy) > 0 {
		keys := make([][]value.Value, len(ids))
		for i, v := range ids {
			en := &env{vars: map[string]value.Value{alias: value.NewVertex(int64(v))}}
			row := make([]value.Value, len(sel.OrderBy))
			for k, ok := range sel.OrderBy {
				kv, err := rs.eval(ok.Expr, en)
				if err != nil {
					return err
				}
				row[k] = kv
			}
			keys[i] = row
		}
		idx := sortIndexByKeys(keys, sel.OrderBy)
		sorted := make([]graph.VID, len(ids))
		for i, j := range idx {
			sorted[i] = ids[j]
		}
		ids = sorted
	}
	if sel.Limit != nil {
		n, err := rs.evalLimit(sel.Limit)
		if err != nil {
			return err
		}
		if int64(len(ids)) > n {
			ids = ids[:n]
		}
	}
	rs.setVSet(assignTo, ids)
	return nil
}

func (rs *runState) evalLimit(e gsql.Expr) (int64, error) {
	lv, err := rs.eval(e, rs.baseEnv())
	if err != nil {
		return 0, err
	}
	n, ok := lv.AsInt()
	if !ok || n < 0 {
		return 0, fmt.Errorf("LIMIT must be a non-negative integer, got %v", lv)
	}
	return n, nil
}

// emitDistinctCombos builds a table with one row per distinct
// combination of the pattern aliases referenced by the output items
// (the vertex-block output model that all the paper's examples use).
func (rs *runState) emitDistinctCombos(sel *gsql.SelectExpr, out *gsql.SelectOutput, bt *bindingTable) (*Table, error) {
	vertCols, edgeCols, relCols := rs.referencedCols(out.Items, bt)
	// Also respect aliases referenced by ORDER BY keys.
	type comboRow struct {
		env  *env
		vals []value.Value
		keys []value.Value
	}
	var combos []comboRow
	seen := map[string]bool{}
	var kb []byte // reused key buffer: probing seen[string(kb)] allocates nothing
	addCombo := func(row bindingRow) error {
		kb = appendComboKey(kb[:0], row, vertCols, edgeCols, relCols)
		if seen[string(kb)] {
			return nil
		}
		seen[string(kb)] = true
		en := bt.rowEnv(row)
		vals := make([]value.Value, len(out.Items))
		for i, item := range out.Items {
			v, err := rs.eval(item.Expr, en)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		var keys []value.Value
		for _, ok := range sel.OrderBy {
			if idx := itemAliasIndex(out.Items, ok.Expr); idx >= 0 {
				keys = append(keys, vals[idx])
				continue
			}
			kv, err := rs.eval(ok.Expr, en)
			if err != nil {
				return err
			}
			keys = append(keys, kv)
		}
		combos = append(combos, comboRow{env: en, vals: vals, keys: keys})
		return nil
	}
	for _, row := range bt.rows {
		if err := addCombo(row); err != nil {
			return nil, err
		}
	}
	// DISTINCT additionally dedupes by projected values.
	if sel.Distinct {
		seenVals := map[string]bool{}
		outRows := combos[:0]
		for _, c := range combos {
			kb = value.NewTuple(c.vals).AppendKey(kb[:0])
			if seenVals[string(kb)] {
				continue
			}
			seenVals[string(kb)] = true
			outRows = append(outRows, c)
		}
		combos = outRows
	}
	if len(sel.OrderBy) > 0 {
		keys := make([][]value.Value, len(combos))
		for i, c := range combos {
			keys[i] = c.keys
		}
		idx := sortIndexByKeys(keys, sel.OrderBy)
		sorted := make([]comboRow, len(combos))
		for i, j := range idx {
			sorted[i] = combos[j]
		}
		combos = sorted
	}
	if sel.Limit != nil {
		n, err := rs.evalLimit(sel.Limit)
		if err != nil {
			return nil, err
		}
		if int64(len(combos)) > n {
			combos = combos[:n]
		}
	}
	t := &Table{}
	for _, item := range out.Items {
		t.Cols = append(t.Cols, itemLabel(item))
	}
	for _, c := range combos {
		t.Rows = append(t.Rows, c.vals)
	}
	return t, nil
}

// appendComboKey appends to sb the key of a row by the referenced
// columns only.
func appendComboKey(sb []byte, row bindingRow, vertCols, edgeCols, relCols []int) []byte {
	for _, c := range vertCols {
		sb = appendInt(sb, int(row.verts[c]))
	}
	sb = append(sb, '|')
	for _, c := range edgeCols {
		sb = appendInt(sb, int(row.edges[c]))
	}
	sb = append(sb, '|')
	for _, c := range relCols {
		sb = row.rels[c].AppendKey(sb)
		sb = append(sb, ',')
	}
	return sb
}

func appendInt(b []byte, n int) []byte {
	return append(strconv.AppendInt(b, int64(n), 10), ',')
}

// referencedCols finds the binding-table columns the items touch.
func (rs *runState) referencedCols(items []gsql.SelectItem, bt *bindingTable) (vertCols, edgeCols, relCols []int) {
	seenV := map[int]bool{}
	seenE := map[int]bool{}
	seenR := map[int]bool{}
	var walk func(e gsql.Expr)
	walk = func(e gsql.Expr) {
		switch n := e.(type) {
		case *gsql.Ident:
			if c, ok := bt.vertIdx[n.Name]; ok && !seenV[c] {
				seenV[c] = true
				vertCols = append(vertCols, c)
			}
			if c, ok := bt.edgeIdx[n.Name]; ok && !seenE[c] {
				seenE[c] = true
				edgeCols = append(edgeCols, c)
			}
			if c, ok := bt.relIdx[n.Name]; ok && !seenR[c] {
				seenR[c] = true
				relCols = append(relCols, c)
			}
		case *gsql.Binary:
			walk(n.L)
			walk(n.R)
		case *gsql.Unary:
			walk(n.X)
		case *gsql.Call:
			if n.Recv != nil {
				walk(n.Recv)
			}
			for _, a := range n.Args {
				walk(a)
			}
		case *gsql.VertexAccRef:
			walk(n.Vertex)
		case *gsql.AttrRef:
			walk(n.Obj)
		case *gsql.TupleExpr:
			for _, sub := range n.Elems {
				walk(sub)
			}
		case *gsql.ArrowTuple:
			for _, sub := range n.Keys {
				walk(sub)
			}
			for _, sub := range n.Vals {
				walk(sub)
			}
		case *gsql.CaseExpr:
			for _, arm := range n.Whens {
				walk(arm.Cond)
				walk(arm.Then)
			}
			if n.Else != nil {
				walk(n.Else)
			}
		}
	}
	for _, item := range items {
		walk(item.Expr)
	}
	sort.Ints(vertCols)
	sort.Ints(edgeCols)
	sort.Ints(relCols)
	return vertCols, edgeCols, relCols
}

// itemAliasIndex resolves an ORDER BY key that names a select-item
// alias (ORDER BY n for "count(*) AS n"); -1 if it is not one.
func itemAliasIndex(items []gsql.SelectItem, key gsql.Expr) int {
	id, ok := key.(*gsql.Ident)
	if !ok {
		return -1
	}
	for i, item := range items {
		if item.Alias == id.Name {
			return i
		}
	}
	return -1
}

// sortIndexByKeys returns row indices sorted by the key rows under the
// ORDER BY spec (stable).
func sortIndexByKeys(keys [][]value.Value, spec []gsql.OrderKey) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for k := range spec {
			c := value.Compare(ka[k], kb[k])
			if spec[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return idx
}
