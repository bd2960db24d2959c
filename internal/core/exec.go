package core

import (
	"fmt"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/value"
)

// execStmts runs a statement list; returned reports an executed
// RETURN.
func (rs *runState) execStmts(stmts []gsql.Stmt) (bool, error) {
	for i := 0; i < len(stmts); i++ {
		s := stmts[i]
		// Statement boundaries are the coarse cancellation
		// checkpoints; WHILE/FOREACH bodies pass through here every
		// iteration, so unbounded control flow stays cancellable.
		if err := rs.checkCancel(); err != nil {
			return false, err
		}
		// A statement opening a fused run executes the whole group —
		// one traversal feeding every block — and skips its members.
		if clauseOracle == nil {
			if g, ok := rs.plan.fusion[s]; ok {
				if err := rs.runFusedGroup(g); err != nil {
					return false, err
				}
				i += len(g.stmts) - 1
				continue
			}
		}
		returned, err := rs.execStmt(s)
		if err != nil {
			return false, err
		}
		if returned {
			return true, nil
		}
	}
	return false, nil
}

func (rs *runState) execStmt(s gsql.Stmt) (bool, error) {
	switch n := s.(type) {
	case *gsql.AssignStmt:
		return false, rs.execAssign(n)
	case *gsql.AccAssignStmt:
		return false, rs.execAccAssign(n)
	case *gsql.SelectStmt:
		return false, rs.runSelect(n.Sel, "")
	case *gsql.WhileStmt:
		return rs.execWhile(n)
	case *gsql.IfStmt:
		cond, err := rs.eval(n.Cond, rs.baseEnv())
		if err != nil {
			return false, err
		}
		if cond.Truthy() {
			return rs.execStmts(n.Then)
		}
		return rs.execStmts(n.Else)
	case *gsql.ForeachStmt:
		return rs.execForeach(n)
	case *gsql.PrintStmt:
		return false, rs.execPrint(n)
	case *gsql.ReturnStmt:
		return true, rs.execReturn(n)
	default:
		return false, fmt.Errorf("unknown statement %T", s)
	}
}

func (rs *runState) execAssign(n *gsql.AssignStmt) error {
	switch rhs := n.Rhs.(type) {
	case *gsql.VSetLit:
		var ids []graph.VID
		seen := map[graph.VID]bool{}
		for _, tn := range rhs.Types {
			vs := rs.g.VerticesOfType(tn)
			if vs == nil {
				return fmt.Errorf("unknown vertex type %q in vertex-set literal", tn)
			}
			for _, v := range vs {
				if !seen[v] {
					seen[v] = true
					ids = append(ids, v)
				}
			}
		}
		rs.setVSet(n.Name, ids)
		return nil
	case *gsql.SelectExpr:
		return rs.runSelect(rhs, n.Name)
	case *gsql.SetOpExpr:
		ids, err := rs.evalSetOp(rhs)
		if err != nil {
			return err
		}
		rs.setVSet(n.Name, ids)
		return nil
	default:
		v, err := rs.eval(rhs, rs.baseEnv())
		if err != nil {
			return err
		}
		rs.locals[n.Name] = v
		return nil
	}
}

func (rs *runState) execAccAssign(n *gsql.AccAssignStmt) error {
	ref, ok := n.Target.(*gsql.GlobalAccRef)
	if !ok {
		return fmt.Errorf("only global accumulators can be updated at statement level")
	}
	a, exists := rs.globals[ref.Name]
	if !exists {
		return fmt.Errorf("undeclared global accumulator @@%s", ref.Name)
	}
	v, err := rs.eval(n.Rhs, rs.baseEnv())
	if err != nil {
		return err
	}
	if n.Op == "=" {
		return a.Assign(v)
	}
	return a.Input(v, 1)
}

func (rs *runState) execWhile(n *gsql.WhileStmt) (bool, error) {
	limit := int64(-1)
	if n.Limit != nil {
		lv, err := rs.eval(n.Limit, rs.baseEnv())
		if err != nil {
			return false, err
		}
		li, ok := lv.AsInt()
		if !ok {
			return false, fmt.Errorf("WHILE LIMIT must be an integer, got %s", lv.Kind())
		}
		limit = li
	}
	for iter := int64(0); limit < 0 || iter < limit; iter++ {
		cond, err := rs.eval(n.Cond, rs.baseEnv())
		if err != nil {
			return false, err
		}
		if !cond.Truthy() {
			break
		}
		returned, err := rs.execStmts(n.Body)
		if err != nil || returned {
			return returned, err
		}
	}
	return false, nil
}

// evalSetOp evaluates vertex-set algebra (UNION/INTERSECT/MINUS) over
// named vertex sets, preserving left-operand order.
func (rs *runState) evalSetOp(e gsql.Expr) ([]graph.VID, error) {
	switch n := e.(type) {
	case *gsql.Ident:
		ids, ok := rs.vsetOrType(n.Name)
		if !ok {
			return nil, fmt.Errorf("%q is not a vertex set or vertex type", n.Name)
		}
		return ids, nil
	case *gsql.SetOpExpr:
		l, err := rs.evalSetOp(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rs.evalSetOp(n.R)
		if err != nil {
			return nil, err
		}
		rset := make(map[graph.VID]bool, len(r))
		for _, v := range r {
			rset[v] = true
		}
		var out []graph.VID
		seen := map[graph.VID]bool{}
		keepL := func(cond func(graph.VID) bool) {
			for _, v := range l {
				if !seen[v] && cond(v) {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		switch n.Op {
		case "union":
			keepL(func(graph.VID) bool { return true })
			for _, v := range r {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		case "intersect":
			keepL(func(v graph.VID) bool { return rset[v] })
		case "minus":
			keepL(func(v graph.VID) bool { return !rset[v] })
		default:
			return nil, fmt.Errorf("unknown set operation %q", n.Op)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("set operations combine vertex-set names, got %T", e)
	}
}

// execForeach iterates a list, set or map value, binding elements (or
// (key, value) tuples for maps) to a local variable.
func (rs *runState) execForeach(n *gsql.ForeachStmt) (bool, error) {
	coll, err := rs.eval(n.Coll, rs.baseEnv())
	if err != nil {
		return false, err
	}
	var elems []value.Value
	switch coll.Kind() {
	case value.KindList, value.KindSet, value.KindTuple:
		elems = coll.Elems()
	case value.KindMap:
		for _, p := range coll.Pairs() {
			elems = append(elems, value.NewTuple([]value.Value{p.Key, p.Val}))
		}
	default:
		return false, fmt.Errorf("FOREACH: cannot iterate a %s value", coll.Kind())
	}
	saved, had := rs.locals[n.Var]
	defer func() {
		if had {
			rs.locals[n.Var] = saved
		} else {
			delete(rs.locals, n.Var)
		}
	}()
	for _, e := range elems {
		rs.locals[n.Var] = e
		returned, err := rs.execStmts(n.Body)
		if err != nil || returned {
			return returned, err
		}
	}
	return false, nil
}

func (rs *runState) execPrint(n *gsql.PrintStmt) error {
	sp := rs.prof.Start("print")
	sp.SetInt("items", int64(len(n.Items)))
	defer sp.End()
	for _, item := range n.Items {
		if item.Projections != nil {
			t, err := rs.printProjection(item)
			if err != nil {
				return err
			}
			rs.res.Printed = append(rs.res.Printed, t)
			continue
		}
		// Bare identifiers can name a vertex set or a table.
		if id, ok := item.Expr.(*gsql.Ident); ok {
			if t, ok := rs.res.Tables[id.Name]; ok {
				rs.res.Printed = append(rs.res.Printed, t)
				continue
			}
			if ids, ok := rs.vsets[id.Name]; ok {
				rs.res.Printed = append(rs.res.Printed, rs.vsetTable(id.Name, ids))
				continue
			}
		}
		v, err := rs.eval(item.Expr, rs.baseEnv())
		if err != nil {
			return err
		}
		rs.res.Printed = append(rs.res.Printed, &Table{
			Name: exprLabel(item.Expr),
			Cols: []string{exprLabel(item.Expr)},
			Rows: [][]value.Value{{v}},
		})
	}
	return nil
}

// printProjection renders PRINT R[e1, e2, ...]: one row per vertex of
// the set R, with R bound as the row alias.
func (rs *runState) printProjection(item gsql.PrintItem) (*Table, error) {
	name := item.Expr.(*gsql.Ident).Name
	ids, ok := rs.vsets[name]
	if !ok {
		return nil, fmt.Errorf("PRINT %s[...]: %q is not a vertex set", name, name)
	}
	t := &Table{Name: name}
	for _, p := range item.Projections {
		t.Cols = append(t.Cols, itemLabel(p))
	}
	for _, v := range ids {
		en := &env{vars: map[string]value.Value{name: value.NewVertex(int64(v))}}
		row := make([]value.Value, len(item.Projections))
		for i, p := range item.Projections {
			pv, err := rs.eval(p.Expr, en)
			if err != nil {
				return nil, err
			}
			row[i] = pv
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (rs *runState) vsetTable(name string, ids []graph.VID) *Table {
	t := &Table{Name: name, Cols: []string{name}}
	for _, v := range ids {
		t.Rows = append(t.Rows, []value.Value{value.NewString(rs.g.VertexKey(v))})
	}
	return t
}

func (rs *runState) execReturn(n *gsql.ReturnStmt) error {
	sp := rs.prof.Start("return")
	sp.SetInt("items", 1)
	defer sp.End()
	if id, ok := n.Expr.(*gsql.Ident); ok {
		if t, ok := rs.res.Tables[id.Name]; ok {
			rs.res.Returned = t
			return nil
		}
		if ids, ok := rs.vsets[id.Name]; ok {
			rs.res.Returned = rs.vsetTable(id.Name, ids)
			return nil
		}
	}
	v, err := rs.eval(n.Expr, rs.baseEnv())
	if err != nil {
		return err
	}
	rs.res.Returned = &Table{
		Name: "result",
		Cols: []string{exprLabel(n.Expr)},
		Rows: [][]value.Value{{v}},
	}
	return nil
}

// exprLabel derives a display column name for an expression.
func exprLabel(e gsql.Expr) string {
	switch n := e.(type) {
	case *gsql.Ident:
		return n.Name
	case *gsql.AttrRef:
		return n.Name
	case *gsql.VertexAccRef:
		return "@" + n.Name
	case *gsql.GlobalAccRef:
		return "@@" + n.Name
	case *gsql.Call:
		return n.Name
	default:
		return "expr"
	}
}

func itemLabel(item gsql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	return exprLabel(item.Expr)
}
