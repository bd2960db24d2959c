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

// This file is the differential oracle for the compiled WHERE, ACCUM
// and POST-ACCUM kernels (compile.go, kernel.go): a tree-walking
// interpreter over the AST that implements the clause semantics of
// Sections 4.3–4.4 directly. Tests install it through clauseOracle
// (maybeInterpreted) and compare every observable outcome — results,
// error text, which of several racing shard errors wins — with the
// compiled run.

// interpretClause is the clauseOracle the differential tests install.
// It counts the statements it runs as interpreted.
func interpretClause(rs *runState, clause string, sel *gsql.SelectExpr, bt *bindingTable, sp *trace.Span) error {
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

// maybeInterpreted runs f on the compiled kernels, or, when interp is
// set, with every clause on the interpreter (restoring the kernels
// afterwards). Tests that use it must not run in parallel.
func maybeInterpreted(interp bool, f func() (*Result, error)) (*Result, error) {
	if interp {
		clauseOracle = interpretClause
		defer func() { clauseOracle = nil }()
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
