package core

import (
	"fmt"
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
		if clauseOracle != nil {
			err = clauseOracle(rs, "accum", sel, bt, asp)
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

// clauseOracle, when set, runs every WHERE, ACCUM and POST-ACCUM clause
// ("where", "accum" or "post_accum") in place of the compiled kernels,
// and execStmts then runs no fused groups. Differential tests set it
// to the tree-walking interpreter; it is nil in production.
var clauseOracle func(rs *runState, clause string, sel *gsql.SelectExpr, bt *bindingTable, sp *trace.Span) error

// runPostAndOutputs runs the POST-ACCUM clause and the block's outputs
// — the per-block tail shared by the sequential path and fused groups.
func (rs *runState) runPostAndOutputs(sel *gsql.SelectExpr, bt *bindingTable, assignTo string, sp *trace.Span) error {
	if len(sel.PostAccum) > 0 {
		psp := sp.Start("post_accum")
		psp.SetInt("statements", int64(len(sel.PostAccum)))
		var err error
		if clauseOracle != nil {
			err = clauseOracle(rs, "post_accum", sel, bt, psp)
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
	if clauseOracle != nil {
		err = clauseOracle(rs, "where", sel, bt, wsp)
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
