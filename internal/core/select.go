package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

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
		if oracle != nil {
			err = oracle.clause(rs, "accum", sel, bt, asp)
		} else {
			rs.res.Stats.AccumCompiledStmts += int64(len(sel.Accum))
			err = rs.execAccumKernels([]*kprogram{rs.plan.selects[sel].acc}, bt, asp)
		}
		asp.End()
		if err != nil {
			return fmt.Errorf("ACCUM: %w", err)
		}
	}
	return rs.runPostAndOutputs(sel, bt, assignTo, sp)
}

// oracle, when set, replaces the compiled path: clause runs every
// WHERE, ACCUM and POST-ACCUM clause ("where", "accum" or
// "post_accum") in place of the compiled kernels, expr evaluates every
// statement and output expression in the scope k describes (kctx.eval),
// and execStmts runs no fused groups. Differential tests set it to the
// tree-walking interpreter; it is nil in production.
var oracle interface {
	clause(rs *runState, clause string, sel *gsql.SelectExpr, bt *bindingTable, sp *trace.Span) error
	expr(k *kctx, e gsql.Expr) (value.Value, error)
}

// runPostAndOutputs runs the POST-ACCUM clause and the block's outputs
// — the per-block tail shared by the sequential path and fused groups.
func (rs *runState) runPostAndOutputs(sel *gsql.SelectExpr, bt *bindingTable, assignTo string, sp *trace.Span) error {
	if len(sel.PostAccum) > 0 {
		psp := sp.Start("post_accum")
		psp.SetInt("statements", int64(len(sel.PostAccum)))
		var err error
		if oracle != nil {
			err = oracle.clause(rs, "post_accum", sel, bt, psp)
		} else {
			rs.res.Stats.AccumCompiledStmts += int64(len(sel.PostAccum))
			err = rs.execPostAccumCompiled(rs.plan.selects[sel].post, sel.PostAccum, bt)
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
// any, through its compiled predicate.
func (rs *runState) runWhere(sel *gsql.SelectExpr, bt *bindingTable, sp *trace.Span) error {
	if sel.Where == nil {
		return nil
	}
	wsp := sp.Start("where")
	wsp.SetInt("rows_in", int64(len(bt.rows)))
	var err error
	if oracle != nil {
		err = oracle.clause(rs, "where", sel, bt, wsp)
	} else {
		cs := rs.plan.selects[sel]
		err = rs.filterWhereCompiled(cs.whereProg, cs.where, bt)
	}
	wsp.SetInt("rows_out", int64(len(bt.rows)))
	wsp.End()
	return err
}

// postAccumAlias returns the unique vertex alias a statement
// references ("" if none); two aliases in one statement is an error,
// as is referencing an edge alias (POST-ACCUM runs per distinct
// vertex — edges have no per-vertex identity there). The first error
// in visiting order wins.
func postAccumAlias(st *gsql.AccStmt, bt *bindingTable) (string, error) {
	found := ""
	var err error
	gsql.WalkAccStmt(st, func(e gsql.Expr) {
		id, ok := e.(*gsql.Ident)
		if !ok || err != nil {
			return
		}
		if _, ok := bt.edgeIdx[id.Name]; ok {
			err = fmt.Errorf("POST-ACCUM cannot reference edge alias %q; edge attributes are only in scope in ACCUM", id.Name)
			return
		}
		if _, ok := bt.vertIdx[id.Name]; ok {
			if found != "" && found != id.Name {
				err = fmt.Errorf("POST-ACCUM statement references two vertex aliases (%s, %s); it must reference at most one", found, id.Name)
				return
			}
			found = id.Name
		}
	})
	if err != nil {
		return "", err
	}
	return found, nil
}

// ---- outputs ------------------------------------------------------------------------

func (rs *runState) emitOutputs(sel *gsql.SelectExpr, bt *bindingTable, assignTo string) error {
	if assignTo != "" {
		return rs.emitVertexSet(sel, bt, assignTo)
	}
	cs := rs.plan.selects[sel]
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
		if cs.grouped {
			t, err = rs.emitGrouped(sel, out, cs.outs[oi], bt)
		} else {
			t, err = rs.emitDistinctCombos(sel, out, cs.outs[oi], bt)
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
					rs.setVSet(out.Into, distinctColumn(bt, col, rs.g.NumVertices()))
				}
			}
		}
	}
	return nil
}

// distinctColumn returns the distinct vertices of one binding column
// in first-appearance order, deduplicating through a bitset over the
// snapshot's n vertex ids.
func distinctColumn(bt *bindingTable, col, n int) []graph.VID {
	seen := make([]uint64, (n+63)/64)
	var out []graph.VID
	for _, row := range bt.rows {
		v := row.verts[col]
		w, bit := v/64, uint64(1)<<(v%64)
		if seen[w]&bit == 0 {
			seen[w] |= bit
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
	ids := distinctColumn(bt, col, rs.g.NumVertices())
	if len(sel.OrderBy) > 0 {
		keys, err := rs.vertexOrderKeys(sel, alias, ids)
		if err != nil {
			return err
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

// vertexOrderKeys evaluates an S = SELECT v block's ORDER BY keys for
// each vertex, in vertex scope.
func (rs *runState) vertexOrderKeys(sel *gsql.SelectExpr, alias string, ids []graph.VID) ([][]value.Value, error) {
	x := rs.plan.selects[sel].order
	k := rs.bindScope(x.p, nil, alias)
	defer x.p.putBind(k.b)
	keys := make([][]value.Value, len(ids))
	for i, v := range ids {
		k.cur, k.curVID = value.NewVertex(int64(v)), v
		row := make([]value.Value, len(sel.OrderBy))
		for j, key := range sel.OrderBy {
			kv, err := k.eval(key.Expr, x.fns[j])
			if err != nil {
				return nil, err
			}
			row[j] = kv
		}
		keys[i] = row
	}
	return keys, nil
}

func (rs *runState) evalLimit(e gsql.Expr) (int64, error) {
	lv, err := rs.evalStmt(e)
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
func (rs *runState) emitDistinctCombos(sel *gsql.SelectExpr, out *gsql.SelectOutput, co *compiledOutput, bt *bindingTable) (*Table, error) {
	vertCols, edgeCols, relCols := referencedCols(out.Items, bt)
	type comboRow struct {
		vals []value.Value
		keys []value.Value
	}
	var combos []comboRow
	seen := map[string]bool{}
	var kb []byte // reused key buffer: probing seen[string(kb)] allocates nothing
	k := rs.bindScope(co.p, bt, "")
	defer co.p.putBind(k.b)
	for ri := range bt.rows {
		row := &bt.rows[ri]
		kb = appendComboKey(kb[:0], *row, vertCols, edgeCols, relCols)
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		k.row = row
		vals, keys, err := k.evalOutput(sel, out, co)
		if err != nil {
			return nil, err
		}
		combos = append(combos, comboRow{vals: vals, keys: keys})
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

// evalOutput evaluates one output row in k's row or group scope: the
// items, then the ORDER BY keys, a key naming an item alias reading
// that item's value.
func (k *kctx) evalOutput(sel *gsql.SelectExpr, out *gsql.SelectOutput, co *compiledOutput) (vals, keys []value.Value, err error) {
	vals = make([]value.Value, len(out.Items))
	for i, item := range out.Items {
		if vals[i], err = k.eval(item.Expr, co.items[i]); err != nil {
			return nil, nil, err
		}
	}
	for i, key := range sel.OrderBy {
		if co.order[i] == nil {
			keys = append(keys, vals[itemAliasIndex(out.Items, key.Expr)])
			continue
		}
		kv, err := k.eval(key.Expr, co.order[i])
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, kv)
	}
	return vals, keys, nil
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
func referencedCols(items []gsql.SelectItem, bt *bindingTable) (vertCols, edgeCols, relCols []int) {
	add := func(cols []int, idx map[string]int, name string) []int {
		if c, ok := idx[name]; ok && !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
		return cols
	}
	for _, item := range items {
		gsql.WalkExpr(item.Expr, func(e gsql.Expr) {
			if id, ok := e.(*gsql.Ident); ok {
				vertCols = add(vertCols, bt.vertIdx, id.Name)
				edgeCols = add(edgeCols, bt.edgeIdx, id.Name)
				relCols = add(relCols, bt.relIdx, id.Name)
			}
		})
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
