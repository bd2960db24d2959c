package core

import (
	"errors"
	"fmt"
	"math"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/value"
)

// This file is the install-time compiler, and compiler.expr is the
// engine's only expression evaluator. It lowers each ACCUM /
// POST-ACCUM clause into a kprogram — a flat instruction sequence over
// closure-compiled expressions — and every other expression into one
// such expression over a slot-only kprogram of its own. A WHERE
// predicate binds like ACCUM; every other expression binds per
// evaluation in one of four scopes:
//
//   - statement: IF/WHILE conditions, WHILE LIMITs, assignments,
//     FOREACH collections, PRINT and RETURN items, declaration
//     initialisers and SELECT LIMITs; names resolve as run locals,
//     then parameters;
//   - vertex: PRINT R[...] projections and the ORDER BY of an
//     S = SELECT v block; the set or alias name is the current vertex;
//   - row: SELECT items and ORDER BY keys, GROUP BY keys and aggregate
//     arguments; names resolve against the binding row first;
//   - group: HAVING and the items and ORDER BY keys of a grouped
//     SELECT; a GROUP BY key reads the group's key value and an
//     aggregate call its folded value.
//
// So the hot loops run with no AST walking, no per-row map
// construction for alias environments, no per-name map lookups
// (identifiers resolve through pre-bound slots) and no attribute
// lookups by name (attribute references carry per-type column offsets
// resolved against the installed schema). Scalar accumulator targets
// additionally pre-classify an unboxed fold shape (accum.ClassifyFast)
// so Sum/Min/Max/Avg/Or/And over INT/FLOAT/BOOL stage their deltas in
// flat cells instead of boxed Accumulators.
//
// The compiler is total: every clause and expression compiles, and
// this is the only executor production runs. Constructs the
// interpreter rejects compile to expressions or instructions that
// raise its error text if and when they execute, so compilation can
// never fail an install. The tree-walking interpreter survives only as
// the differential oracle in interp_test.go.
//
// On top of per-clause compilation, compileQuery runs a fusion pass:
// consecutive SELECT blocks sharing an identical FROM pattern and
// WHERE clause — the paper's multi-aggregation Qacc shape — merge into
// one fusionGroup that expands the binding table once and executes all
// blocks' compiled ACCUM programs in a single sharded pass.

// queryPlan caches the compilation artifacts of one installed query,
// built at Install alongside the DFA cache and shared (read-only) by
// all runs.
type queryPlan struct {
	// selects maps each SELECT block to its compiled clauses.
	selects map[*gsql.SelectExpr]*compiledSelect
	// fusion maps the FIRST statement of each fused run of consecutive
	// SELECT blocks to its group; execStmts dispatches on it.
	fusion map[gsql.Stmt]*fusionGroup
	// exprs maps each statement-scope expression to its compiled form,
	// and the set name of each PRINT R[...] item to its projections.
	exprs map[gsql.Expr]*exprList
}

// compiledSelect holds the compiled clauses of one SELECT block. acc
// and post are never nil (an absent clause is an empty program); where
// is nil only for a block without WHERE.
type compiledSelect struct {
	acc  *kprogram
	post *kprogram
	// where is the WHERE predicate; whereProg holds the name,
	// global-snapshot and vertex-store slots it reads.
	where     *cexpr
	whereProg *kprogram
	// order is the vertex-scope ORDER BY of an S = SELECT v block.
	order *exprList
	// outs holds a standalone block's outputs, one per INTO, in group
	// scope when grouped and in row scope otherwise.
	outs    []*compiledOutput
	grouped bool
}

// exprList is a list of expressions compiled over one slot-only
// kprogram, so one bind serves them all.
type exprList struct {
	p   *kprogram
	fns []*cexpr
}

// compiledOutput is one INTO output of a standalone SELECT block, all
// its expressions compiled over one program. order has one entry per
// ORDER BY key, nil where the key names an item alias.
type compiledOutput struct {
	p     *kprogram
	items []*cexpr
	order []*cexpr
	// A grouped output's HAVING, items and ORDER BY keys read group
	// scope; its GROUP BY keys and aggregate arguments read row scope.
	having  *cexpr
	groupBy []gsql.Expr
	keys    []*cexpr
	aggs    []aggSlot
}

// aggSlot is one aggregate call of a grouped output; the group-scope
// compiler numbers them in the order it meets them. arg is nil for
// the * argument.
type aggSlot struct {
	call *gsql.Call
	arg  *cexpr
}

// fusionGroup is a run of ≥2 consecutive SELECT blocks proven to share
// one traversal: identical FROM and WHERE, disjoint accumulator
// read/write footprints across blocks (so the merged pass is
// bit-identical to the sequential one, including float fold order),
// and fully compiled ACCUM clauses.
type fusionGroup struct {
	stmts     []gsql.Stmt
	sels      []*gsql.SelectExpr
	assignTos []string // per block; "" for standalone SELECT ... INTO
	nstmts    int      // total ACCUM statements across blocks (trace)
}

// compileQuery builds the plan for one installed query. It never
// fails: ineligible blocks simply do not fuse.
func compileQuery(e *Engine, q *gsql.Query) *queryPlan {
	p := &queryPlan{
		selects: map[*gsql.SelectExpr]*compiledSelect{},
		fusion:  map[gsql.Stmt]*fusionGroup{},
		exprs:   map[gsql.Expr]*exprList{},
	}
	base := compiler{
		e:      e,
		gdecls: map[string]*accum.Spec{},
		vdecls: map[string]*accum.Spec{},
		params: map[string]value.Kind{},
	}
	for _, prm := range q.Params {
		base.params[prm.Name] = prm.Type.Kind
	}
	// Statement-scope expressions compile lazily. A declaration's
	// initialiser sees only the accumulators declared before it, as the
	// run creates them in order (stmt shares base's declaration maps).
	stmt := base
	stmt.lazy = true
	for _, d := range q.Decls {
		if d.Init != nil {
			p.exprs[d.Init] = stmt.compileList(d.Init)
		}
		if d.Global {
			base.gdecls[d.Name] = d.Spec
		} else {
			base.vdecls[d.Name] = d.Spec
		}
	}
	compileStmt := func(exprs ...gsql.Expr) {
		for _, e := range exprs {
			if e != nil {
				p.exprs[e] = stmt.compileList(e)
			}
		}
	}
	var doStmts func(stmts []gsql.Stmt)
	doStmts = func(stmts []gsql.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *gsql.SelectStmt:
				p.selects[n.Sel] = base.compileSelect(n.Sel, false)
				compileStmt(n.Sel.Limit)
			case *gsql.AssignStmt:
				switch rhs := n.Rhs.(type) {
				case *gsql.SelectExpr:
					p.selects[rhs] = base.compileSelect(rhs, true)
					compileStmt(rhs.Limit)
				case *gsql.VSetLit, *gsql.SetOpExpr:
				default:
					compileStmt(rhs)
				}
			case *gsql.AccAssignStmt:
				compileStmt(n.Rhs)
			case *gsql.WhileStmt:
				compileStmt(n.Cond, n.Limit)
				doStmts(n.Body)
			case *gsql.IfStmt:
				compileStmt(n.Cond)
				doStmts(n.Then)
				doStmts(n.Else)
			case *gsql.ForeachStmt:
				compileStmt(n.Coll)
				doStmts(n.Body)
			case *gsql.PrintStmt:
				for _, item := range n.Items {
					if item.Projections == nil {
						compileStmt(item.Expr)
						continue
					}
					exprs := make([]gsql.Expr, len(item.Projections))
					for i, pr := range item.Projections {
						exprs[i] = pr.Expr
					}
					p.exprs[item.Expr] = stmt.compileList(exprs...)
				}
			case *gsql.ReturnStmt:
				compileStmt(n.Expr)
			}
		}
		fuseStmts(p, stmts)
	}
	doStmts(q.Stmts)
	return p
}

// compileSelect compiles one block's clauses, each with a fresh
// compiler derived from the query-level base, and the expressions its
// outputs evaluate: the vertex-scope ORDER BY of an S = SELECT v block
// (assign), else each INTO output.
func (base compiler) compileSelect(sel *gsql.SelectExpr, assign bool) *compiledSelect {
	cs := &compiledSelect{
		acc:  base.compileClause(sel.Accum, false),
		post: base.compileClause(sel.PostAccum, true),
	}
	if sel.Where != nil {
		c := base
		c.p = newKprogram(false)
		cs.where, cs.whereProg = c.expr(sel.Where), c.p
	}
	out := base
	out.lazy = true
	if assign {
		keys := make([]gsql.Expr, len(sel.OrderBy))
		for i, k := range sel.OrderBy {
			keys[i] = k.Expr
		}
		cs.order = out.compileList(keys...)
		return cs
	}
	cs.grouped = len(sel.GroupBy) > 0 || hasAggregates(sel)
	for oi := range sel.Outputs {
		cs.outs = append(cs.outs, out.compileOutput(sel, &sel.Outputs[oi], cs.grouped))
	}
	return cs
}

// compileList compiles exprs over one fresh slot-only program.
func (base compiler) compileList(exprs ...gsql.Expr) *exprList {
	c := base
	c.p = newKprogram(false)
	x := &exprList{p: c.p, fns: make([]*cexpr, len(exprs))}
	for i, e := range exprs {
		x.fns[i] = c.expr(e)
	}
	return x
}

// compileOutput compiles one INTO output of a standalone block. The
// items compile first, then HAVING, then the ORDER BY keys: the order
// in which the group-scope compiler numbers the aggregates, and so the
// order in which each row feeds them.
func (base compiler) compileOutput(sel *gsql.SelectExpr, out *gsql.SelectOutput, grouped bool) *compiledOutput {
	c := base
	c.p = newKprogram(false)
	co := &compiledOutput{p: c.p}
	if grouped {
		row := c
		co.groupBy = sel.GroupBy
		for _, k := range sel.GroupBy {
			co.keys = append(co.keys, row.expr(k))
		}
		c.grp = &groupScope{row: &row, keys: sel.GroupBy, aggs: &co.aggs}
	}
	for _, item := range out.Items {
		co.items = append(co.items, c.expr(item.Expr))
	}
	if grouped && sel.Having != nil {
		co.having = c.expr(sel.Having)
	}
	for _, k := range sel.OrderBy {
		var ce *cexpr
		if itemAliasIndex(out.Items, k.Expr) < 0 {
			ce = c.expr(k.Expr)
		}
		co.order = append(co.order, ce)
	}
	return co
}

// groupScope is the group-scope compiler's state: the row-scope
// compiler over the same program (for aggregate arguments), the GROUP
// BY keys and the aggregate slots numbered so far.
type groupScope struct {
	row  *compiler
	keys []gsql.Expr
	aggs *[]aggSlot
}

// groupExpr compiles the two group-scope rules, which come before
// every other at every node: a subexpression equal to a GROUP BY key
// reads the group's value of that key, and an aggregate call reads its
// slot's folded value. It returns nil for any other expression.
func (c *compiler) groupExpr(e gsql.Expr) *cexpr {
	for i, key := range c.grp.keys {
		if gsql.ExprEqual(e, key) {
			return dynExpr(func(k *kctx) (value.Value, error) { return k.grp.keyVals[i], nil })
		}
	}
	call, ok := e.(*gsql.Call)
	if !ok || !isAggregateCall(call) {
		return nil
	}
	slot := aggSlot{call: call}
	if id, ok := call.Args[0].(*gsql.Ident); !ok || id.Name != "*" {
		slot.arg = c.grp.row.expr(call.Args[0])
	}
	j := len(*c.grp.aggs)
	*c.grp.aggs = append(*c.grp.aggs, slot)
	return dynExpr(func(k *kctx) (value.Value, error) { return k.grp.aggs[j].Value(), nil })
}

// ---- clause compilation ------------------------------------------------------

// compiler carries the per-clause compilation state.
type compiler struct {
	e      *Engine
	gdecls map[string]*accum.Spec
	vdecls map[string]*accum.Spec
	params map[string]value.Kind // declared parameter kinds
	p      *kprogram
	// lazy reads a global accumulator when its node evaluates, not
	// from a snapshot taken at bind: statement and output scopes,
	// where a short-circuited operand or an untaken CASE arm must not
	// materialise the accumulator. Clauses snapshot.
	lazy bool
	// grp is set while compiling group-scope expressions.
	grp *groupScope
}

// compileClause lowers one ACCUM (post=false) or POST-ACCUM (post=true)
// statement list. An empty clause compiles to an empty program so
// pure-traversal blocks stay fusible.
func (base compiler) compileClause(stmts []gsql.AccStmt, post bool) *kprogram {
	c := &base
	c.p = newKprogram(post)
	// Clause-local assignment targets must be known before any
	// expression compiles: identifier closures check the generation-
	// stamped local slot (with fall-through) only for names the clause
	// can actually assign.
	for i := range stmts {
		collectAssignedLocals(&stmts[i], c.p)
	}
	c.p.instrs = c.stmts(stmts)
	c.p.stmts, c.p.unboxed = countUnboxed(c.p.instrs)
	return c.p
}

// stmts compiles a statement list, one instruction per statement.
func (c *compiler) stmts(stmts []gsql.AccStmt) []kinstr {
	instrs := make([]kinstr, len(stmts))
	for i := range stmts {
		instrs[i] = c.stmt(&stmts[i])
	}
	return instrs
}

// countUnboxed counts the assignment statements of an instruction
// list, IF branches included, and those carrying a typed RHS.
func countUnboxed(instrs []kinstr) (total, unboxed int) {
	for i := range instrs {
		ins := &instrs[i]
		if ins.cond != nil {
			t, u := countUnboxed(ins.then)
			total, unboxed = total+t, unboxed+u
			t, u = countUnboxed(ins.els)
			total, unboxed = total+t, unboxed+u
			continue
		}
		total++
		if ins.rhsI != nil || ins.rhsF != nil {
			unboxed++
		}
	}
	return total, unboxed
}

func collectAssignedLocals(st *gsql.AccStmt, p *kprogram) {
	if st.Cond != nil {
		for i := range st.Then {
			collectAssignedLocals(&st.Then[i], p)
		}
		for i := range st.Else {
			collectAssignedLocals(&st.Else[i], p)
		}
		return
	}
	if id, ok := st.Lhs.(*gsql.Ident); ok {
		p.localSlot(id.Name)
	}
}

// stmt compiles one ACCUM/POST-ACCUM statement. Statements the
// interpreter rejects (wrong operator, invalid target) compile to
// error instructions that fire only if the statement actually
// executes — exactly like the interpreter, which never pre-validates
// untaken IF branches.
func (c *compiler) stmt(st *gsql.AccStmt) kinstr {
	if st.Cond != nil {
		cond := c.expr(st.Cond)
		return kinstr{cond: cond, then: c.stmts(st.Then), els: c.stmts(st.Else)}
	}
	post := c.p.post
	switch lhs := st.Lhs.(type) {
	case *gsql.Ident:
		if st.Op != "=" {
			return kinstr{op: kiError, err: fmt.Errorf("local variable %s supports '=' only", lhs.Name)}
		}
		rhs := c.expr(st.Rhs)
		return kinstr{op: kiLocal, local: c.p.localSlot(lhs.Name), rhs: rhs}
	case *gsql.GlobalAccRef:
		if st.Op != "+=" {
			if post {
				return kinstr{op: kiError, err: fmt.Errorf("'=' on @@%s inside POST-ACCUM would race across vertices; assign at statement level", lhs.Name)}
			}
			return kinstr{op: kiError, err: fmt.Errorf("'=' on @@%s inside ACCUM would race across acc-executions; assign at statement level or in POST-ACCUM", lhs.Name)}
		}
		ins := kinstr{op: kiGlobal, name: lhs.Name, rhs: c.expr(st.Rhs), slot: -1}
		if spec, ok := c.gdecls[lhs.Name]; ok {
			ins.slot = c.p.gwriteSlot(lhs.Name, spec)
			ins.spec = spec
			ins.fast = accum.ClassifyFast(spec)
			c.attachUnboxed(&ins, st.Rhs)
		} else {
			ins.wErr = fmt.Errorf("undeclared global accumulator @@%s", lhs.Name)
		}
		return ins
	case *gsql.VertexAccRef:
		if !post && st.Op != "+=" {
			return kinstr{op: kiError, err: fmt.Errorf("'=' on @%s inside ACCUM would race across acc-executions (snapshot semantics); use POST-ACCUM", lhs.Name)}
		}
		recv := c.expr(lhs.Vertex)
		rhs := c.expr(st.Rhs)
		ins := kinstr{op: kiVacc, name: lhs.Name, recv: recv, recvSlot: c.vertexSlot(lhs.Vertex),
			rhs: rhs, slot: -1, assign: post && st.Op == "="}
		if spec, ok := c.vdecls[lhs.Name]; ok {
			if post {
				// POST-ACCUM writes go straight to the live store
				// (each vertex is visited once).
				ins.slot = c.p.vstoreSlot(lhs.Name, spec)
			} else {
				ins.slot = c.p.vwriteSlot(lhs.Name, spec)
			}
			ins.spec = spec
			ins.fast = accum.ClassifyFast(spec)
			c.attachUnboxed(&ins, st.Rhs)
		} else {
			ins.wErr = fmt.Errorf("undeclared vertex accumulator @%s", lhs.Name)
		}
		return ins
	default:
		if post {
			return kinstr{op: kiError, err: fmt.Errorf("invalid POST-ACCUM statement target %T", st.Lhs)}
		}
		return kinstr{op: kiError, err: fmt.Errorf("invalid ACCUM statement target %T", st.Lhs)}
	}
}

// ---- expression compilation --------------------------------------------------

func constExpr(v value.Value) *cexpr {
	return &cexpr{isConst: true, cval: v, fn: func(*kctx) (value.Value, error) { return v, nil }}
}

// errExpr compiles an expression that always fails — the compiled twin
// of the interpreter's lazy error paths (undeclared accumulators,
// misplaced aggregates, ...): the error surfaces only if and when the
// expression actually evaluates.
func errExpr(err error) *cexpr {
	return &cexpr{fn: func(*kctx) (value.Value, error) { return value.Null, err }}
}

func dynExpr(fn func(*kctx) (value.Value, error)) *cexpr { return &cexpr{fn: fn} }

// expr compiles one expression; it never returns nil.
func (c *compiler) expr(e gsql.Expr) *cexpr {
	if c.grp != nil {
		if ce := c.groupExpr(e); ce != nil {
			return ce
		}
	}
	switch n := e.(type) {
	case *gsql.Lit:
		return constExpr(n.Val)
	case *gsql.Ident:
		return c.identExpr(n.Name)
	case *gsql.GlobalAccRef:
		if _, ok := c.gdecls[n.Name]; !ok {
			return errExpr(fmt.Errorf("undeclared global accumulator @@%s", n.Name))
		}
		if c.lazy {
			name := n.Name
			return dynExpr(func(k *kctx) (value.Value, error) { return k.rs.globals[name].Value(), nil })
		}
		gi := c.p.gsnapSlot(n.Name)
		return dynExpr(func(k *kctx) (value.Value, error) { return k.b.gsnap[gi], nil })
	case *gsql.VertexAccRef:
		return c.vaccExpr(n)
	case *gsql.AttrRef:
		return c.attrExpr(n)
	case *gsql.Call:
		return c.callExpr(n)
	case *gsql.Binary:
		return c.binaryExpr(n)
	case *gsql.Unary:
		return c.unaryExpr(n)
	case *gsql.TupleExpr:
		elems := make([]*cexpr, len(n.Elems))
		for i, sub := range n.Elems {
			elems[i] = c.expr(sub)
		}
		return dynExpr(func(k *kctx) (value.Value, error) {
			vals := make([]value.Value, len(elems))
			for i, ce := range elems {
				v, err := ce.fn(k)
				if err != nil {
					return value.Null, err
				}
				vals[i] = v
			}
			return value.NewTuple(vals), nil
		})
	case *gsql.ArrowTuple:
		parts := make([]*cexpr, 0, len(n.Keys)+len(n.Vals))
		for _, sub := range n.Keys {
			parts = append(parts, c.expr(sub))
		}
		for _, sub := range n.Vals {
			parts = append(parts, c.expr(sub))
		}
		return dynExpr(func(k *kctx) (value.Value, error) {
			vals := make([]value.Value, len(parts))
			for i, ce := range parts {
				v, err := ce.fn(k)
				if err != nil {
					return value.Null, err
				}
				vals[i] = v
			}
			return value.NewTuple(vals), nil
		})
	case *gsql.CaseExpr:
		type arm struct{ cond, then *cexpr }
		arms := make([]arm, len(n.Whens))
		for i, w := range n.Whens {
			arms[i].cond = c.expr(w.Cond)
			arms[i].then = c.expr(w.Then)
		}
		var els *cexpr
		if n.Else != nil {
			els = c.expr(n.Else)
		}
		return dynExpr(func(k *kctx) (value.Value, error) {
			for _, a := range arms {
				cv, err := a.cond.fn(k)
				if err != nil {
					return value.Null, err
				}
				if cv.Truthy() {
					return a.then.fn(k)
				}
			}
			if els != nil {
				return els.fn(k)
			}
			return value.Null, nil
		})
	case *gsql.VSetLit:
		return errExpr(fmt.Errorf("vertex-set literal is only valid as an assignment right-hand side"))
	case *gsql.SelectExpr:
		return errExpr(fmt.Errorf("SELECT is only valid as a statement or assignment right-hand side"))
	default:
		return errExpr(fmt.Errorf("cannot evaluate %T", e))
	}
}

func (c *compiler) identExpr(name string) *cexpr {
	ni := c.p.nameSlot(name)
	li, isLocal := c.p.localIdx[name]
	if !isLocal {
		return dynExpr(func(k *kctx) (value.Value, error) { return k.resolveName(ni) })
	}
	// The name may be assigned by this clause: read the local slot if
	// it has been written this acc-execution, else fall through to the
	// bound name — the interpreter's locals-shadow-everything order.
	return dynExpr(func(k *kctx) (value.Value, error) {
		if k.localGen[li] == k.gen {
			return k.locals[li], nil
		}
		return k.resolveName(ni)
	})
}

func (c *compiler) vaccExpr(n *gsql.VertexAccRef) *cexpr {
	recv := c.expr(n.Vertex)
	name := n.Name
	si := -1
	if spec, ok := c.vdecls[name]; ok {
		si = c.p.vstoreSlot(name, spec)
	}
	prev := n.Prev
	return dynExpr(func(k *kctx) (value.Value, error) {
		vv, err := recv.fn(k)
		if err != nil {
			return value.Null, err
		}
		if vv.Kind() != value.KindVertex {
			return value.Null, fmt.Errorf("@%s: receiver is %s, not a vertex", name, vv.Kind())
		}
		if si < 0 {
			return value.Null, fmt.Errorf("undeclared vertex accumulator @%s", name)
		}
		store := k.b.vstores[si]
		vid := graph.VID(vv.VertexID())
		if prev && k.prevVacc != nil {
			if pv, ok := k.prevValue(si, name, vid); ok {
				return pv, nil
			}
		}
		return store.peekValue(vid)
	})
}

// attrExpr pre-resolves the attribute name to a column offset per
// vertex/edge type of the installed schema, replacing the per-row
// name→index scan with one slice index. Types added to the schema
// after install miss the table and fall back to the by-name lookup.
// An unshadowed identifier receiver bound to a vertex or edge alias
// reads its id straight off the binding row, as numAttr does, instead
// of boxing it into a Value first.
func (c *compiler) attrExpr(n *gsql.AttrRef) *cexpr {
	obj := c.expr(n.Obj)
	name := n.Name
	sch := c.e.Graph().Schema
	vts := sch.VertexTypes()
	offsV := make([]int, len(vts))
	for i, vt := range vts {
		offsV[i] = vt.AttrIndex(name)
	}
	ets := sch.EdgeTypes()
	offsE := make([]int, len(ets))
	for i, et := range ets {
		offsE[i] = et.AttrIndex(name)
	}
	c.p.attrOffsets++
	// Data reads go through the RUN's pinned snapshot, never a graph
	// captured at install time: the head mutates concurrently, and a
	// follower re-bootstrap replaces it outright. Only the offset tables
	// above are install-time (schemas are immutable per type).
	read := func(k *kctx) (value.Value, error) {
		g := k.rs.g
		o, err := obj.fn(k)
		if err != nil {
			return value.Null, err
		}
		switch o.Kind() {
		case value.KindVertex:
			return vertexAttrAt(g, offsV, graph.VID(o.VertexID()), name)
		case value.KindEdge:
			return edgeAttrAt(g, offsE, graph.EID(o.EdgeID()), name)
		case value.KindMap:
			for _, p := range o.Pairs() {
				if p.Key.Kind() == value.KindString && p.Key.Str() == name {
					return p.Val, nil
				}
			}
			return value.Null, fmt.Errorf("row has no column %q", name)
		default:
			return value.Null, fmt.Errorf("attribute %q on non-graph value of kind %s", name, o.Kind())
		}
	}
	if id, isIdent := n.Obj.(*gsql.Ident); isIdent {
		if _, shadowed := c.p.localIdx[id.Name]; !shadowed {
			ni := c.p.nameSlot(id.Name)
			return dynExpr(func(k *kctx) (value.Value, error) {
				switch bn := &k.b.names[ni]; bn.kind {
				case bnVert:
					return vertexAttrAt(k.rs.g, offsV, k.row.verts[bn.col], name)
				case bnEdge:
					return edgeAttrAt(k.rs.g, offsE, k.row.edges[bn.col], name)
				}
				return read(k)
			})
		}
	}
	return dynExpr(read)
}

// vertexAttrAt reads attribute name of vid through the install-time
// offset table offs, by name for types added after install.
func vertexAttrAt(g *graph.Graph, offs []int, vid graph.VID, name string) (value.Value, error) {
	i := -1
	if tid := g.VertexTypeID(vid); tid < len(offs) {
		i = offs[tid]
	} else {
		i = g.VertexTypeOf(vid).AttrIndex(name)
	}
	if i < 0 {
		return value.Null, fmt.Errorf("vertex type %s has no attribute %q", g.VertexTypeOf(vid).Name, name)
	}
	return g.VertexAttrAt(vid, i), nil
}

// edgeAttrAt is vertexAttrAt for edges.
func edgeAttrAt(g *graph.Graph, offs []int, eid graph.EID, name string) (value.Value, error) {
	i := -1
	if tid := g.EdgeTypeID(eid); tid < len(offs) {
		i = offs[tid]
	} else {
		i = g.EdgeTypeOf(eid).AttrIndex(name)
	}
	if i < 0 {
		return value.Null, fmt.Errorf("edge type %s has no attribute %q", g.EdgeTypeOf(eid).Name, name)
	}
	return g.EdgeAttrAt(eid, i), nil
}

func (c *compiler) callExpr(n *gsql.Call) *cexpr {
	if n.Recv != nil {
		return c.methodExpr(n)
	}
	if isAggregateCall(n) {
		return errExpr(fmt.Errorf("aggregate %s(...) is only valid in a SELECT with GROUP BY", n.Name))
	}
	args := make([]*cexpr, len(n.Args))
	allConst := true
	for i, a := range n.Args {
		args[i] = c.expr(a)
		allConst = allConst && args[i].isConst
	}
	name := n.Name
	if allConst {
		// Every builtin is a pure scalar function: fold. A folding
		// error stays a runtime error (surfaced per evaluation), not a
		// compile failure.
		vals := make([]value.Value, len(args))
		for i, a := range args {
			vals[i] = a.cval
		}
		if v, err := evalBuiltin(name, vals); err == nil {
			return constExpr(v)
		}
	}
	call := dynExpr(func(k *kctx) (value.Value, error) {
		vals := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a.fn(k)
			if err != nil {
				return value.Null, err
			}
			vals[i] = v
		}
		return evalBuiltin(name, vals)
	})
	// size(@@acc) counts the accumulator's container (accum.Size)
	// rather than materialising, sorting and then counting its value,
	// in every scope but group scope, where a GROUP BY key could stand
	// for the argument. A container accum.Size declines to count takes
	// the general path.
	if len(n.Args) != 1 || lower(name) != "size" || c.grp != nil {
		return call
	}
	if ref, ok := n.Args[0].(*gsql.GlobalAccRef); ok {
		if _, declared := c.gdecls[ref.Name]; declared {
			acc := ref.Name
			return dynExpr(func(k *kctx) (value.Value, error) {
				if sz, ok := accum.Size(k.rs.globals[acc]); ok {
					return value.NewInt(int64(sz)), nil
				}
				return call.fn(k)
			})
		}
	}
	return call
}

func (c *compiler) methodExpr(n *gsql.Call) *cexpr {
	recv := c.expr(n.Recv)
	args := make([]*cexpr, len(n.Args))
	for i, a := range n.Args {
		args[i] = c.expr(a)
	}
	name := n.Name
	ln := lower(name)
	call := dynExpr(func(k *kctx) (value.Value, error) {
		g := k.rs.g // types/keys read the run's pinned snapshot
		rv, err := recv.fn(k)
		if err != nil {
			return value.Null, err
		}
		if rv.Kind() != value.KindVertex {
			return value.Null, fmt.Errorf("method %q on non-vertex value of kind %s", name, rv.Kind())
		}
		vid := graph.VID(rv.VertexID())
		switch ln {
		case "outdegree":
			switch len(args) {
			case 0:
				return value.NewInt(int64(k.rs.adjacency().OutDegree(vid))), nil
			case 1:
				et, err := args[0].fn(k)
				if err != nil {
					return value.Null, err
				}
				if et.Kind() != value.KindString {
					return value.Null, fmt.Errorf("outdegree edge type must be a string")
				}
				return value.NewInt(int64(k.rs.outDegreeByName(vid, et.Str()))), nil
			default:
				return value.Null, fmt.Errorf("outdegree takes at most one argument")
			}
		case "degree":
			return value.NewInt(int64(k.rs.adjacency().Degree(vid))), nil
		case "type":
			return value.NewString(g.VertexTypeOf(vid).Name), nil
		case "id":
			return value.NewString(g.VertexKey(vid)), nil
		case "vid":
			return value.NewInt(int64(vid)), nil
		default:
			return value.Null, fmt.Errorf("unknown vertex method %q", name)
		}
	})
	// Ident.size() is evalMethod's VertexSet.size(): when the name is
	// not a pattern alias in scope for this clause and the run has a
	// vertex set of that name, it counts the set. The bind step
	// resolves that per clause execution (kprogram.bindVsetSizes);
	// otherwise the ordinary method call runs, with its errors.
	if id, ok := n.Recv.(*gsql.Ident); ok && ln == "size" && len(n.Args) == 0 {
		vi := c.p.vsetSlot(id.Name)
		return dynExpr(func(k *kctx) (value.Value, error) {
			if sz := k.b.vsetSizes[vi]; sz >= 0 {
				return value.NewInt(sz), nil
			}
			return call.fn(k)
		})
	}
	return call
}

func (c *compiler) binaryExpr(n *gsql.Binary) *cexpr {
	l := c.expr(n.L)
	r := c.expr(n.R)
	op := n.Op
	if op == "and" || op == "or" {
		and := op == "and"
		if l.isConst {
			// Constant left side folds the short-circuit decision.
			if and && !l.cval.Truthy() {
				return constExpr(value.NewBool(false))
			}
			if !and && l.cval.Truthy() {
				return constExpr(value.NewBool(true))
			}
			if r.isConst {
				return constExpr(value.NewBool(r.cval.Truthy()))
			}
			return dynExpr(func(k *kctx) (value.Value, error) {
				rv, err := r.fn(k)
				if err != nil {
					return value.Null, err
				}
				return value.NewBool(rv.Truthy()), nil
			})
		}
		return dynExpr(func(k *kctx) (value.Value, error) {
			lv, err := l.fn(k)
			if err != nil {
				return value.Null, err
			}
			if and && !lv.Truthy() {
				return value.NewBool(false), nil
			}
			if !and && lv.Truthy() {
				return value.NewBool(true), nil
			}
			rv, err := r.fn(k)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(rv.Truthy()), nil
		})
	}
	apply := binOpFunc(op)
	if apply == nil {
		return errExpr(fmt.Errorf("unknown operator %q", op))
	}
	if l.isConst && r.isConst {
		if v, err := apply(l.cval, r.cval); err == nil {
			return constExpr(v)
		}
	}
	return dynExpr(func(k *kctx) (value.Value, error) {
		lv, err := l.fn(k)
		if err != nil {
			return value.Null, err
		}
		rv, err := r.fn(k)
		if err != nil {
			return value.Null, err
		}
		return apply(lv, rv)
	})
}

func binOpFunc(op string) func(l, r value.Value) (value.Value, error) {
	switch op {
	case "+":
		return value.Add
	case "-":
		return value.Sub
	case "*":
		return value.Mul
	case "/":
		return value.Div
	case "%":
		return value.Mod
	case "==":
		return func(l, r value.Value) (value.Value, error) { return value.NewBool(value.Equal(l, r)), nil }
	case "!=":
		return func(l, r value.Value) (value.Value, error) { return value.NewBool(!value.Equal(l, r)), nil }
	case "<":
		return func(l, r value.Value) (value.Value, error) { return value.NewBool(value.Compare(l, r) < 0), nil }
	case "<=":
		return func(l, r value.Value) (value.Value, error) { return value.NewBool(value.Compare(l, r) <= 0), nil }
	case ">":
		return func(l, r value.Value) (value.Value, error) { return value.NewBool(value.Compare(l, r) > 0), nil }
	case ">=":
		return func(l, r value.Value) (value.Value, error) { return value.NewBool(value.Compare(l, r) >= 0), nil }
	case "in":
		return evalIn
	default:
		return nil
	}
}

func (c *compiler) unaryExpr(n *gsql.Unary) *cexpr {
	x := c.expr(n.X)
	if n.Op == "not" {
		if x.isConst {
			return constExpr(value.NewBool(!x.cval.Truthy()))
		}
		return dynExpr(func(k *kctx) (value.Value, error) {
			v, err := x.fn(k)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(!v.Truthy()), nil
		})
	}
	// Any other unary operator is negation (mirrors the interpreter).
	if x.isConst {
		if v, err := value.Neg(x.cval); err == nil {
			return constExpr(v)
		}
	}
	return dynExpr(func(k *kctx) (value.Value, error) {
		v, err := x.fn(k)
		if err != nil {
			return value.Null, err
		}
		return value.Neg(v)
	})
}

// ---- unboxed numeric compilation ---------------------------------------------

// errUnboxedMiss signals that a value met at run time did not match
// the unboxed path's static type prediction (a schema change, a
// mistyped receiver, a zero divisor whose error the boxed path owns).
// The statement then re-runs its boxed expression, which reproduces
// interpreter behavior — results and error text — exactly.
var errUnboxedMiss = errors.New("unboxed type miss")

// numExpr is a type-specialized compiled expression: exactly one of
// i / f is set (by isFloat), returning the machine scalar directly so
// fast-target ACCUM statements evaluate interior nodes with no
// value.Value traffic at all — the "zero interpretive dispatch"
// promise of the compiled kernel, one rung below the boxed closures.
type numExpr struct {
	isFloat bool
	i       func(*kctx) (int64, error)
	f       func(*kctx) (float64, error)
}

// asFloatFn promotes either shape to a float evaluator (mixed-operand
// arithmetic is float, mirroring value.Add and friends).
func (n *numExpr) asFloatFn() func(*kctx) (float64, error) {
	if n.isFloat {
		return n.f
	}
	i := n.i
	return func(k *kctx) (float64, error) {
		v, err := i(k)
		return float64(v), err
	}
}

// numeric compiles an expression down to an unboxed int64/float64
// evaluator when its type is statically certain: int/float literals,
// declared int/float parameters, attribute reads whose column type is
// unambiguous in the schema, reads of Sum/Min/Max<int|float> vertex
// accumulators (v.@x, and v.@x' in POST-ACCUM), v.outdegree() and
// v.outdegree("T"), abs(), and + - * / % and unary minus over those.
// Anything else returns nil and stays on the boxed closures. Zero
// divisors deliberately miss to the boxed path so division/modulo
// errors keep the interpreter's exact text.
func (c *compiler) numeric(e gsql.Expr) *numExpr {
	switch n := e.(type) {
	case *gsql.Lit:
		switch n.Val.Kind() {
		case value.KindInt:
			iv := n.Val.Int()
			return &numExpr{i: func(*kctx) (int64, error) { return iv, nil }}
		case value.KindFloat:
			fv := n.Val.Float()
			return &numExpr{isFloat: true, f: func(*kctx) (float64, error) { return fv, nil }}
		}
		return nil
	case *gsql.Ident:
		return c.numParam(n.Name)
	case *gsql.VertexAccRef:
		return c.numVacc(n)
	case *gsql.Call:
		if n.Recv != nil {
			return c.numOutdegree(n)
		}
		return c.numAbs(n)
	case *gsql.AttrRef:
		return c.numAttr(n)
	case *gsql.Binary:
		return c.numBinary(n)
	case *gsql.Unary:
		if n.Op == "not" {
			return nil
		}
		x := c.numeric(n.X)
		if x == nil {
			return nil
		}
		if x.isFloat {
			f := x.f
			return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
				v, err := f(k)
				return -v, err
			}}
		}
		i := x.i
		return &numExpr{i: func(k *kctx) (int64, error) {
			v, err := i(k)
			return -v, err
		}}
	}
	return nil
}

// numAttr compiles an attribute read whose column kind is the same in
// every vertex/edge type that defines it. An unshadowed identifier
// receiver (the common `s.score` / `e.w` shape) resolves straight off
// the binding row (or to the POST-ACCUM group's vertex) and reads the
// column as a machine scalar — no Value is constructed anywhere on the
// path; other receivers resolve through their boxed closure and only
// the read goes offset-direct.
func (c *compiler) numAttr(n *gsql.AttrRef) *numExpr {
	obj := c.expr(n.Obj)
	name := n.Name
	sch := c.e.Graph().Schema
	var at graph.AttrType
	seen := false
	vts := sch.VertexTypes()
	offsV := make([]int, len(vts))
	for i, vt := range vts {
		offsV[i] = vt.AttrIndex(name)
		if offsV[i] >= 0 {
			t := vt.Attrs[offsV[i]].Type
			if seen && t != at {
				return nil
			}
			at, seen = t, true
		}
	}
	ets := sch.EdgeTypes()
	offsE := make([]int, len(ets))
	for i, et := range ets {
		offsE[i] = et.AttrIndex(name)
		if offsE[i] >= 0 {
			t := et.Attrs[offsE[i]].Type
			if seen && t != at {
				return nil
			}
			at, seen = t, true
		}
	}
	if !seen || (at != graph.AttrInt && at != graph.AttrFloat) {
		return nil
	}
	if id, isIdent := n.Obj.(*gsql.Ident); isIdent {
		if _, shadowed := c.p.localIdx[id.Name]; !shadowed {
			ni := c.p.nameSlot(id.Name)
			if at == graph.AttrFloat {
				return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
					g := k.rs.g // attr reads hit the run's pinned snapshot
					if vid, ok := k.vertexOf(ni); ok {
						if tid := g.VertexTypeID(vid); tid < len(offsV) && offsV[tid] >= 0 {
							if fv, ok := g.VertexAttrFloatAt(vid, offsV[tid]); ok {
								return fv, nil
							}
						}
					} else if bn := &k.b.names[ni]; bn.kind == bnEdge {
						eid := k.row.edges[bn.col]
						if tid := g.EdgeTypeID(eid); tid < len(offsE) && offsE[tid] >= 0 {
							if fv, ok := g.EdgeAttrFloatAt(eid, offsE[tid]); ok {
								return fv, nil
							}
						}
					}
					return 0, errUnboxedMiss
				}}
			}
			return &numExpr{i: func(k *kctx) (int64, error) {
				g := k.rs.g
				if vid, ok := k.vertexOf(ni); ok {
					if tid := g.VertexTypeID(vid); tid < len(offsV) && offsV[tid] >= 0 {
						if iv, ok := g.VertexAttrIntAt(vid, offsV[tid]); ok {
							return iv, nil
						}
					}
				} else if bn := &k.b.names[ni]; bn.kind == bnEdge {
					eid := k.row.edges[bn.col]
					if tid := g.EdgeTypeID(eid); tid < len(offsE) && offsE[tid] >= 0 {
						if iv, ok := g.EdgeAttrIntAt(eid, offsE[tid]); ok {
							return iv, nil
						}
					}
				}
				return 0, errUnboxedMiss
			}}
		}
	}
	read := func(k *kctx) (value.Value, error) {
		g := k.rs.g
		o, err := obj.fn(k)
		if err != nil {
			return value.Null, err
		}
		switch o.Kind() {
		case value.KindVertex:
			vid := graph.VID(o.VertexID())
			if tid := g.VertexTypeID(vid); tid < len(offsV) && offsV[tid] >= 0 {
				return g.VertexAttrAt(vid, offsV[tid]), nil
			}
		case value.KindEdge:
			eid := graph.EID(o.EdgeID())
			if tid := g.EdgeTypeID(eid); tid < len(offsE) && offsE[tid] >= 0 {
				return g.EdgeAttrAt(eid, offsE[tid]), nil
			}
		}
		return value.Null, errUnboxedMiss
	}
	if at == graph.AttrFloat {
		return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
			v, err := read(k)
			if err != nil {
				return 0, err
			}
			if v.Kind() != value.KindFloat {
				return 0, errUnboxedMiss
			}
			return v.Float(), nil
		}}
	}
	return &numExpr{i: func(k *kctx) (int64, error) {
		v, err := read(k)
		if err != nil {
			return 0, err
		}
		if v.Kind() != value.KindInt {
			return 0, errUnboxedMiss
		}
		return v.Int(), nil
	}}
}

// vertexSlot returns the name slot of an unshadowed identifier — a
// receiver kctx.vertexOf can resolve without boxing — or -1.
func (c *compiler) vertexSlot(e gsql.Expr) int {
	id, ok := e.(*gsql.Ident)
	if !ok {
		return -1
	}
	if _, shadowed := c.p.localIdx[id.Name]; shadowed {
		return -1
	}
	return c.p.nameSlot(id.Name)
}

// numParam compiles a declared int/float parameter. The slot reads
// whatever the execution bound to the name (a run local or alias of
// the same name shadows the parameter), so the kind is checked per
// read.
func (c *compiler) numParam(name string) *numExpr {
	kind, ok := c.params[name]
	if !ok || (kind != value.KindInt && kind != value.KindFloat) {
		return nil
	}
	if _, shadowed := c.p.localIdx[name]; shadowed {
		return nil
	}
	ni := c.p.nameSlot(name)
	if kind == value.KindFloat {
		return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
			if bn := &k.b.names[ni]; bn.kind == bnValue {
				if fv, ok := bn.val.TryFloat(); ok {
					return fv, nil
				}
			}
			return 0, errUnboxedMiss
		}}
	}
	return &numExpr{i: func(k *kctx) (int64, error) {
		if bn := &k.b.names[ni]; bn.kind == bnValue {
			if iv, ok := bn.val.TryInt(); ok {
				return iv, nil
			}
		}
		return 0, errUnboxedMiss
	}}
}

// numVacc compiles a read of a Sum/Min/Max<int|float> vertex
// accumulator through an identifier receiver. It reads the live store
// read-only, as peekValue does (an untouched vertex reads the store's
// initial value). A Min/Max<float> holding an int misses. In
// POST-ACCUM, v.@x' of a Sum store reads the clause's unboxed @acc'
// record first; a prime on any other store stays boxed.
func (c *compiler) numVacc(n *gsql.VertexAccRef) *numExpr {
	spec, ok := c.vdecls[n.Name]
	if !ok {
		return nil
	}
	ni := c.vertexSlot(n.Vertex)
	if ni < 0 {
		return nil
	}
	si := c.p.vstoreSlot(n.Name, spec)
	prev := n.Prev && c.p.post
	if prev && !c.p.typedPrev(si) {
		return nil
	}
	switch c.p.vstoreFast[si] {
	case accum.FastSumFloat, accum.FastMinFloat, accum.FastMaxFloat:
		return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
			vid, ok := k.vertexOf(ni)
			if !ok {
				return 0, errUnboxedMiss
			}
			if prev {
				if r := &k.b.prev[si]; r.stamp[vid] == k.b.prevGen {
					return r.f[vid], nil
				}
			}
			if fv, ok := k.b.vstores[si].peekFloat(vid); ok {
				return fv, nil
			}
			return 0, errUnboxedMiss
		}}
	case accum.FastSumInt, accum.FastMinInt, accum.FastMaxInt:
		return &numExpr{i: func(k *kctx) (int64, error) {
			vid, ok := k.vertexOf(ni)
			if !ok {
				return 0, errUnboxedMiss
			}
			if prev {
				if r := &k.b.prev[si]; r.stamp[vid] == k.b.prevGen {
					return r.i[vid], nil
				}
			}
			if iv, ok := k.b.vstores[si].peekInt(vid); ok {
				return iv, nil
			}
			return 0, errUnboxedMiss
		}}
	}
	return nil
}

// numOutdegree compiles v.outdegree() and v.outdegree("T") with a
// literal edge type, whose id resolves here, at install; a type the
// schema does not have yet stays boxed. Degrees read the run's pinned
// snapshot through its CSR.
func (c *compiler) numOutdegree(n *gsql.Call) *numExpr {
	if lower(n.Name) != "outdegree" || len(n.Args) > 1 {
		return nil
	}
	ni := c.vertexSlot(n.Recv)
	if ni < 0 {
		return nil
	}
	if len(n.Args) == 0 {
		return &numExpr{i: func(k *kctx) (int64, error) {
			if vid, ok := k.vertexOf(ni); ok {
				return int64(k.rs.adjacency().OutDegree(vid)), nil
			}
			return 0, errUnboxedMiss
		}}
	}
	lit, ok := n.Args[0].(*gsql.Lit)
	if !ok || lit.Val.Kind() != value.KindString {
		return nil
	}
	et := c.e.Graph().Schema.EdgeType(lit.Val.Str())
	if et == nil {
		return nil
	}
	id := et.ID
	return &numExpr{i: func(k *kctx) (int64, error) {
		if vid, ok := k.vertexOf(ni); ok {
			return int64(k.rs.adjacency().OutDegreeOfType(vid, id)), nil
		}
		return 0, errUnboxedMiss
	}}
}

// numAbs compiles abs() over an int or float expression, with
// value.Abs's results (the int minimum stays negative).
func (c *compiler) numAbs(n *gsql.Call) *numExpr {
	if lower(n.Name) != "abs" || len(n.Args) != 1 {
		return nil
	}
	x := c.numeric(n.Args[0])
	if x == nil {
		return nil
	}
	if x.isFloat {
		f := x.f
		return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
			v, err := f(k)
			return math.Abs(v), err
		}}
	}
	i := x.i
	return &numExpr{i: func(k *kctx) (int64, error) {
		v, err := i(k)
		if v < 0 {
			v = -v
		}
		return v, err
	}}
}

func (c *compiler) numBinary(n *gsql.Binary) *numExpr {
	switch n.Op {
	case "+", "-", "*", "/", "%":
	default:
		return nil
	}
	l := c.numeric(n.L)
	r := c.numeric(n.R)
	if l == nil || r == nil {
		return nil
	}
	switch n.Op {
	case "/":
		// Division is float-valued regardless of operands; an int/int
		// zero divisor errors, which the boxed path reports.
		if !l.isFloat && !r.isFloat {
			li, ri := l.i, r.i
			return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
				a, err := li(k)
				if err != nil {
					return 0, err
				}
				b, err := ri(k)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, errUnboxedMiss
				}
				return float64(a) / float64(b), nil
			}}
		}
		lf, rf := l.asFloatFn(), r.asFloatFn()
		return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
			a, err := lf(k)
			if err != nil {
				return 0, err
			}
			b, err := rf(k)
			if err != nil {
				return 0, err
			}
			return a / b, nil
		}}
	case "%":
		if l.isFloat || r.isFloat {
			return nil // value.Mod is int-only; mixed kinds are a boxed-path error
		}
		li, ri := l.i, r.i
		return &numExpr{i: func(k *kctx) (int64, error) {
			a, err := li(k)
			if err != nil {
				return 0, err
			}
			b, err := ri(k)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, errUnboxedMiss
			}
			return a % b, nil
		}}
	}
	op := n.Op
	if !l.isFloat && !r.isFloat {
		li, ri := l.i, r.i
		return &numExpr{i: func(k *kctx) (int64, error) {
			a, err := li(k)
			if err != nil {
				return 0, err
			}
			b, err := ri(k)
			if err != nil {
				return 0, err
			}
			switch op {
			case "+":
				return a + b, nil
			case "-":
				return a - b, nil
			default:
				return a * b, nil
			}
		}}
	}
	lf, rf := l.asFloatFn(), r.asFloatFn()
	return &numExpr{isFloat: true, f: func(k *kctx) (float64, error) {
		a, err := lf(k)
		if err != nil {
			return 0, err
		}
		b, err := rf(k)
		if err != nil {
			return 0, err
		}
		switch op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		default:
			return a * b, nil
		}
	}}
}

// attachUnboxed wires a type-specialized RHS evaluator onto a
// fast-target instruction when the statically-known result type is one
// the target's fold accepts outright. Int-elem targets take int
// expressions only; float-sum/avg targets take either shape promoted
// to float; float-extreme targets take float expressions only (an int
// input must keep its int kind through the boxed path, exactly as the
// boxed accumulator preserves it). ACCUM statements fold the result
// into a delta cell, POST-ACCUM global ones too, and POST-ACCUM vertex
// ones put it into the live accumulator (accum.PutInt / PutFloat).
func (c *compiler) attachUnboxed(ins *kinstr, rhs gsql.Expr) {
	if ins.fast == accum.FastNone {
		return
	}
	ne := c.numeric(rhs)
	if ne == nil {
		return
	}
	switch ins.fast {
	case accum.FastSumInt, accum.FastMinInt, accum.FastMaxInt:
		if !ne.isFloat {
			ins.rhsI = ne.i
		}
	case accum.FastSumFloat, accum.FastAvg:
		ins.rhsF = ne.asFloatFn()
	case accum.FastMinFloat, accum.FastMaxFloat:
		if ne.isFloat {
			ins.rhsF = ne.f
		}
	}
}

// ---- fusion ------------------------------------------------------------------

// fuseStmts scans one statement list for maximal runs of consecutive
// select-bearing statements that can legally share a single traversal
// and registers them keyed by the run's first statement.
func fuseStmts(p *queryPlan, stmts []gsql.Stmt) {
	i := 0
	for i < len(stmts) {
		sel, _, ok := selOfStmt(stmts[i])
		if !ok {
			i++
			continue
		}
		g := &fusionGroup{}
		addBlock(g, stmts[i])
		facts := blockFactsOf(stmts[i])
		j := i + 1
		for j < len(stmts) {
			nsel, _, ok := selOfStmt(stmts[j])
			if !ok {
				break
			}
			nf := blockFactsOf(stmts[j])
			if !sameTraversal(sel, nsel) || !disjointFacts(facts, nf) {
				break
			}
			addBlock(g, stmts[j])
			mergeFacts(facts, nf)
			j++
		}
		if len(g.stmts) >= 2 {
			p.fusion[g.stmts[0]] = g
		}
		i = j
	}
}

func selOfStmt(s gsql.Stmt) (*gsql.SelectExpr, string, bool) {
	switch n := s.(type) {
	case *gsql.SelectStmt:
		return n.Sel, "", true
	case *gsql.AssignStmt:
		if sel, ok := n.Rhs.(*gsql.SelectExpr); ok {
			return sel, n.Name, true
		}
	}
	return nil, "", false
}

func addBlock(g *fusionGroup, s gsql.Stmt) {
	sel, assignTo, _ := selOfStmt(s)
	g.stmts = append(g.stmts, s)
	g.sels = append(g.sels, sel)
	g.assignTos = append(g.assignTos, assignTo)
	g.nstmts += len(sel.Accum)
}

// sameTraversal reports whether two blocks expand the identical
// binding table: same FROM conjuncts (seed, DARPE text, aliases) and
// the same WHERE predicate.
func sameTraversal(a, b *gsql.SelectExpr) bool {
	if len(a.From) != len(b.From) {
		return false
	}
	for i := range a.From {
		pa, pb := &a.From[i], &b.From[i]
		if pa.Src.Name != pb.Src.Name || pa.Src.Alias != pb.Src.Alias {
			return false
		}
		if len(pa.Hops) != len(pb.Hops) {
			return false
		}
		for h := range pa.Hops {
			ha, hb := &pa.Hops[h], &pb.Hops[h]
			if ha.DarpeText != hb.DarpeText || ha.EdgeAlias != hb.EdgeAlias {
				return false
			}
			if ha.Target.Name != hb.Target.Name || ha.Target.Alias != hb.Target.Alias {
				return false
			}
		}
	}
	if (a.Where == nil) != (b.Where == nil) {
		return false
	}
	return a.Where == nil || gsql.ExprEqual(a.Where, b.Where)
}

// blockFacts is a block's conservative data footprint for the fusion
// legality check.
type blockFacts struct {
	// accs are every accumulator name appearing anywhere in the block
	// ("g:" global / "v:" vertex), reads and writes alike.
	accs map[string]bool
	// writes are accumulator names the block's clauses write.
	writes map[string]bool
	// names are all identifiers the block mentions, including FROM
	// seed/target names.
	names map[string]bool
	// defs are names the block defines: the assignment target and
	// every INTO table (both double as vertex sets).
	defs map[string]bool
}

func blockFactsOf(s gsql.Stmt) *blockFacts {
	sel, assignTo, _ := selOfStmt(s)
	f := &blockFacts{
		accs:   map[string]bool{},
		writes: map[string]bool{},
		names:  map[string]bool{},
		defs:   map[string]bool{},
	}
	gsql.WalkSelectExpr(sel, func(e gsql.Expr) {
		switch n := e.(type) {
		case *gsql.GlobalAccRef:
			f.accs["g:"+n.Name] = true
		case *gsql.VertexAccRef:
			f.accs["v:"+n.Name] = true
		case *gsql.Ident:
			f.names[n.Name] = true
		}
	})
	var markWrites func(stmts []gsql.AccStmt)
	markWrites = func(stmts []gsql.AccStmt) {
		for i := range stmts {
			st := &stmts[i]
			if st.Cond != nil {
				markWrites(st.Then)
				markWrites(st.Else)
				continue
			}
			switch lhs := st.Lhs.(type) {
			case *gsql.GlobalAccRef:
				f.writes["g:"+lhs.Name] = true
			case *gsql.VertexAccRef:
				f.writes["v:"+lhs.Name] = true
			}
		}
	}
	markWrites(sel.Accum)
	markWrites(sel.PostAccum)
	for _, pp := range sel.From {
		f.names[pp.Src.Name] = true
		for _, h := range pp.Hops {
			f.names[h.Target.Name] = true
		}
	}
	if assignTo != "" {
		f.defs[assignTo] = true
	}
	for _, out := range sel.Outputs {
		if out.Into != "" {
			f.defs[out.Into] = true
		}
	}
	return f
}

// disjointFacts decides whether block b can join a group with
// cumulative footprint a: no accumulator either side writes may be
// touched by the other (preserving read-your-predecessors'-writes
// sequencing AND per-accumulator float fold order), and b must not
// mention any name the group defines (vertex sets / tables / scalars
// produced by earlier blocks' outputs).
func disjointFacts(a, b *blockFacts) bool {
	for w := range b.writes {
		if a.accs[w] {
			return false
		}
	}
	for w := range a.writes {
		if b.accs[w] {
			return false
		}
	}
	for d := range a.defs {
		if b.names[d] {
			return false
		}
	}
	return true
}

func mergeFacts(dst, src *blockFacts) {
	for k := range src.accs {
		dst.accs[k] = true
	}
	for k := range src.writes {
		dst.writes[k] = true
	}
	for k := range src.names {
		dst.names[k] = true
	}
	for k := range src.defs {
		dst.defs[k] = true
	}
}
