package core

import (
	"fmt"
	"sync"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// This file is the differential oracle for the compiled path
// (compile.go, kernel.go): a tree-walking interpreter over the AST that
// implements the clause semantics of Sections 4.3–4.4 directly and
// evaluates every statement, output and GROUP BY expression in an
// environment of its own. Tests install it as the oracle
// (maybeInterpreted) and compare every observable outcome — results,
// error text, which of several racing shard errors wins — with the
// compiled run.

// interpreter is the oracle the differential tests install.
type interpreter struct{}

// clause runs one clause on the interpreter, counting the statements
// it runs as interpreted.
func (interpreter) clause(rs *runState, clause string, sel *gsql.SelectExpr, bt *bindingTable, sp *trace.Span) error {
	switch clause {
	case "where":
		return rs.filterWhere(bt, sel.Where)
	case "accum":
		rs.res.Stats.AccumInterpretedStmts += int64(len(sel.Accum))
		return rs.execAccumClause(sel.Accum, bt, sp)
	case "post_accum":
		rs.res.Stats.AccumInterpretedStmts += int64(len(sel.PostAccum))
		return rs.execPostAccumClause(sel.PostAccum, bt)
	}
	return fmt.Errorf("unknown clause %q", clause)
}

// expr evaluates a statement or output expression in the environment
// the interpreter builds for k's scope: empty in statement scope, the
// one alias in vertex scope, the row's aliases in row scope, and in
// group scope the representative row's plus the group's key and
// aggregate values.
func (interpreter) expr(k *kctx, e gsql.Expr) (value.Value, error) {
	en := &env{}
	switch {
	case k.bt != nil:
		en = k.bt.rowEnv(*k.row)
		if k.grp != nil {
			en.groupKeys, en.groupVals = k.out.groupBy, k.grp.keyVals
			en.aggValues = map[*gsql.Call]value.Value{}
			for j, a := range k.out.aggs {
				en.aggValues[a.call] = k.grp.aggs[j].Value()
			}
		}
	case k.alias != "":
		en.vars = map[string]value.Value{k.alias: k.cur}
	}
	return k.rs.eval(e, en)
}

// maybeInterpreted runs f on the compiled path, or, when interp is
// set, with every clause and expression on the interpreter (restoring
// the compiled path afterwards). Tests that use it must not run in
// parallel.
func maybeInterpreted(interp bool, f func() (*Result, error)) (*Result, error) {
	if interp {
		oracle = interpreter{}
		defer func() { oracle = nil }()
	}
	return f()
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
		alias, err := postAccumAlias(st, bt)
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

// ---- expressions ----------------------------------------------------------------

// env carries one evaluation's context.
type env struct {
	// vars holds pattern-alias bindings.
	vars map[string]value.Value
	// locals holds ACCUM/POST-ACCUM-clause local variables and
	// prevVacc serves v.@acc' reads inside POST-ACCUM (the value at
	// clause start for accumulators the clause has overwritten). Only
	// the clause interpreter above sets them; the compiled kernels keep
	// both in kctx.
	locals   map[string]value.Value
	prevVacc map[prevKey]value.Value
	// aggValues substitutes computed SQL-style aggregates for their
	// Call nodes during grouped SELECT evaluation.
	aggValues map[*gsql.Call]value.Value
	// groupKeys/groupVals substitute GROUP BY key expressions with the
	// group's key values (null for keys excluded by a grouping set).
	groupKeys []gsql.Expr
	groupVals []value.Value
}

// eval evaluates an expression.
func (rs *runState) eval(e gsql.Expr, en *env) (value.Value, error) {
	if en.groupKeys != nil {
		for i, k := range en.groupKeys {
			if gsql.ExprEqual(e, k) {
				return en.groupVals[i], nil
			}
		}
	}
	switch n := e.(type) {
	case *gsql.Lit:
		return n.Val, nil
	case *gsql.Ident:
		return rs.evalIdent(n.Name, en)
	case *gsql.GlobalAccRef:
		a, ok := rs.globals[n.Name]
		if !ok {
			return value.Null, fmt.Errorf("undeclared global accumulator @@%s", n.Name)
		}
		return a.Value(), nil
	case *gsql.VertexAccRef:
		return rs.evalVertexAcc(n, en)
	case *gsql.AttrRef:
		return rs.evalAttr(n, en)
	case *gsql.Call:
		return rs.evalCall(n, en)
	case *gsql.Binary:
		return rs.evalBinary(n, en)
	case *gsql.Unary:
		x, err := rs.eval(n.X, en)
		if err != nil {
			return value.Null, err
		}
		if n.Op == "not" {
			return value.NewBool(!x.Truthy()), nil
		}
		return value.Neg(x)
	case *gsql.TupleExpr:
		elems := make([]value.Value, len(n.Elems))
		for i, sub := range n.Elems {
			v, err := rs.eval(sub, en)
			if err != nil {
				return value.Null, err
			}
			elems[i] = v
		}
		return value.NewTuple(elems), nil
	case *gsql.ArrowTuple:
		elems := make([]value.Value, 0, len(n.Keys)+len(n.Vals))
		for _, sub := range append(append([]gsql.Expr{}, n.Keys...), n.Vals...) {
			v, err := rs.eval(sub, en)
			if err != nil {
				return value.Null, err
			}
			elems = append(elems, v)
		}
		return value.NewTuple(elems), nil
	case *gsql.CaseExpr:
		for _, arm := range n.Whens {
			c, err := rs.eval(arm.Cond, en)
			if err != nil {
				return value.Null, err
			}
			if c.Truthy() {
				return rs.eval(arm.Then, en)
			}
		}
		if n.Else != nil {
			return rs.eval(n.Else, en)
		}
		return value.Null, nil
	case *gsql.VSetLit:
		return value.Null, fmt.Errorf("vertex-set literal is only valid as an assignment right-hand side")
	case *gsql.SelectExpr:
		return value.Null, fmt.Errorf("SELECT is only valid as a statement or assignment right-hand side")
	default:
		return value.Null, fmt.Errorf("cannot evaluate %T", e)
	}
}

func (rs *runState) evalIdent(name string, en *env) (value.Value, error) {
	if en.locals != nil {
		if v, ok := en.locals[name]; ok {
			return v, nil
		}
	}
	if en.vars != nil {
		if v, ok := en.vars[name]; ok {
			return v, nil
		}
	}
	if v, ok := rs.locals[name]; ok {
		return v, nil
	}
	if v, ok := rs.params[name]; ok {
		return v, nil
	}
	if name == "null" || name == "NULL" {
		return value.Null, nil
	}
	return value.Null, fmt.Errorf("unknown identifier %q", name)
}

func (rs *runState) evalVertexAcc(n *gsql.VertexAccRef, en *env) (value.Value, error) {
	vv, err := rs.eval(n.Vertex, en)
	if err != nil {
		return value.Null, err
	}
	if vv.Kind() != value.KindVertex {
		return value.Null, fmt.Errorf("@%s: receiver is %s, not a vertex", n.Name, vv.Kind())
	}
	store, ok := rs.vaccs[n.Name]
	if !ok {
		return value.Null, fmt.Errorf("undeclared vertex accumulator @%s", n.Name)
	}
	vid := graph.VID(vv.VertexID())
	if n.Prev && en.prevVacc != nil {
		if pv, ok := en.prevVacc[prevKey{vid, n.Name}]; ok {
			return pv, nil
		}
	}
	return store.peekValue(vid)
}

func (rs *runState) evalAttr(n *gsql.AttrRef, en *env) (value.Value, error) {
	obj, err := rs.eval(n.Obj, en)
	if err != nil {
		return value.Null, err
	}
	switch obj.Kind() {
	case value.KindVertex:
		v, ok := rs.g.VertexAttr(graph.VID(obj.VertexID()), n.Name)
		if !ok {
			return value.Null, fmt.Errorf("vertex type %s has no attribute %q",
				rs.g.VertexTypeOf(graph.VID(obj.VertexID())).Name, n.Name)
		}
		return v, nil
	case value.KindEdge:
		v, ok := rs.g.EdgeAttr(graph.EID(obj.EdgeID()), n.Name)
		if !ok {
			return value.Null, fmt.Errorf("edge type %s has no attribute %q",
				rs.g.EdgeTypeOf(graph.EID(obj.EdgeID())).Name, n.Name)
		}
		return v, nil
	case value.KindMap:
		// Relational-table row bindings (Example 1): column lookup by
		// name.
		for _, p := range obj.Pairs() {
			if p.Key.Kind() == value.KindString && p.Key.Str() == n.Name {
				return p.Val, nil
			}
		}
		return value.Null, fmt.Errorf("row has no column %q", n.Name)
	default:
		return value.Null, fmt.Errorf("attribute %q on non-graph value of kind %s", n.Name, obj.Kind())
	}
}

func (rs *runState) evalBinary(n *gsql.Binary, en *env) (value.Value, error) {
	// Short-circuit logical operators.
	if n.Op == "and" || n.Op == "or" {
		l, err := rs.eval(n.L, en)
		if err != nil {
			return value.Null, err
		}
		if n.Op == "and" && !l.Truthy() {
			return value.NewBool(false), nil
		}
		if n.Op == "or" && l.Truthy() {
			return value.NewBool(true), nil
		}
		r, err := rs.eval(n.R, en)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(r.Truthy()), nil
	}
	l, err := rs.eval(n.L, en)
	if err != nil {
		return value.Null, err
	}
	r, err := rs.eval(n.R, en)
	if err != nil {
		return value.Null, err
	}
	switch n.Op {
	case "+":
		return value.Add(l, r)
	case "-":
		return value.Sub(l, r)
	case "*":
		return value.Mul(l, r)
	case "/":
		return value.Div(l, r)
	case "%":
		return value.Mod(l, r)
	case "==":
		return value.NewBool(value.Equal(l, r)), nil
	case "!=":
		return value.NewBool(!value.Equal(l, r)), nil
	case "<":
		return value.NewBool(value.Compare(l, r) < 0), nil
	case "<=":
		return value.NewBool(value.Compare(l, r) <= 0), nil
	case ">":
		return value.NewBool(value.Compare(l, r) > 0), nil
	case ">=":
		return value.NewBool(value.Compare(l, r) >= 0), nil
	case "in":
		return evalIn(l, r)
	default:
		return value.Null, fmt.Errorf("unknown operator %q", n.Op)
	}
}

func (rs *runState) evalCall(n *gsql.Call, en *env) (value.Value, error) {
	// Grouped-aggregate substitution.
	if en.aggValues != nil {
		if v, ok := en.aggValues[n]; ok {
			return v, nil
		}
	}
	if n.Recv != nil {
		return rs.evalMethod(n, en)
	}
	if isAggregateCall(n) {
		return value.Null, fmt.Errorf("aggregate %s(...) is only valid in a SELECT with GROUP BY", n.Name)
	}
	if sz, ok := rs.globalSize(n, en); ok {
		return value.NewInt(int64(sz)), nil
	}
	args := make([]value.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := rs.eval(a, en)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return evalBuiltin(n.Name, args)
}

// globalSize answers size(@@acc) from the accumulator's container
// (accum.Size) rather than materialising, sorting and then counting its
// value. ok is false whenever the general path must run instead: any
// other call, an argument a GROUP BY key could substitute, an
// undeclared accumulator (whose error eval reports), or a container
// accum.Size declines to count.
func (rs *runState) globalSize(n *gsql.Call, en *env) (int, bool) {
	if len(n.Args) != 1 || en.groupKeys != nil {
		return 0, false
	}
	ref, ok := n.Args[0].(*gsql.GlobalAccRef)
	if !ok || lower(n.Name) != "size" {
		return 0, false
	}
	a, ok := rs.globals[ref.Name]
	if !ok {
		return 0, false
	}
	return accum.Size(a)
}

func (rs *runState) evalMethod(n *gsql.Call, en *env) (value.Value, error) {
	// VertexSet.size() — the receiver names a vertex set, not a
	// bound vertex (used for frontier-emptiness loop conditions).
	if id, ok := n.Recv.(*gsql.Ident); ok && lower(n.Name) == "size" && len(n.Args) == 0 {
		inScope := en.vars != nil && func() bool { _, ok := en.vars[id.Name]; return ok }()
		if !inScope {
			if ids, ok := rs.vsets[id.Name]; ok {
				return value.NewInt(int64(len(ids))), nil
			}
		}
	}
	recv, err := rs.eval(n.Recv, en)
	if err != nil {
		return value.Null, err
	}
	if recv.Kind() != value.KindVertex {
		return value.Null, fmt.Errorf("method %q on non-vertex value of kind %s", n.Name, recv.Kind())
	}
	vid := graph.VID(recv.VertexID())
	switch lower(n.Name) {
	case "outdegree":
		switch len(n.Args) {
		case 0:
			return value.NewInt(int64(rs.adjacency().OutDegree(vid))), nil
		case 1:
			et, err := rs.eval(n.Args[0], en)
			if err != nil {
				return value.Null, err
			}
			if et.Kind() != value.KindString {
				return value.Null, fmt.Errorf("outdegree edge type must be a string")
			}
			return value.NewInt(int64(rs.outDegreeByName(vid, et.Str()))), nil
		default:
			return value.Null, fmt.Errorf("outdegree takes at most one argument")
		}
	case "degree":
		return value.NewInt(int64(rs.adjacency().Degree(vid))), nil
	case "type":
		return value.NewString(rs.g.VertexTypeOf(vid).Name), nil
	case "id":
		return value.NewString(rs.g.VertexKey(vid)), nil
	case "vid":
		// Graph-internal numeric id; handy as a total order for label
		// propagation (WCC's component labels).
		return value.NewInt(int64(vid)), nil
	default:
		return value.Null, fmt.Errorf("unknown vertex method %q", n.Name)
	}
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
