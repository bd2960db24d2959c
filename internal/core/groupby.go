package core

import (
	"fmt"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/value"
)

// This file implements the conventional SQL-style aggregation path
// (Section 8's point of comparison): SELECT with GROUP BY and the
// aggregate functions count/sum/avg/min/max, evaluated over the
// binding table under bag semantics — multiplicities of the compressed
// binding table feed the aggregates exactly as μ duplicate rows would.

// hasAggregates reports whether any output item, HAVING or ORDER BY
// expression contains an aggregate call.
func hasAggregates(sel *gsql.SelectExpr) bool {
	found := false
	visit := func(e gsql.Expr) {
		if c, ok := e.(*gsql.Call); ok && isAggregateCall(c) {
			found = true
		}
	}
	for _, out := range sel.Outputs {
		for _, item := range out.Items {
			gsql.WalkExpr(item.Expr, visit)
		}
	}
	gsql.WalkExpr(sel.Having, visit)
	for _, ok := range sel.OrderBy {
		gsql.WalkExpr(ok.Expr, visit)
	}
	return found
}

// newAggregate returns the accumulator that folds one aggregate call
// for one group.
func newAggregate(call *gsql.Call) (accum.Accumulator, error) {
	var spec *accum.Spec
	switch lower(call.Name) {
	case "count":
		spec = accum.SumSpec(value.KindInt)
	case "sum":
		spec = accum.SumSpec(value.KindFloat)
	case "avg":
		spec = accum.AvgSpec(value.KindFloat)
	case "min":
		spec = accum.MinSpec(value.KindFloat)
	case "max":
		spec = accum.MaxSpec(value.KindFloat)
	default:
		return nil, fmt.Errorf("unknown aggregate %q", call.Name)
	}
	return accum.New(spec)
}

// feed folds the current binding row (with its bag multiplicity) into
// one group's aggregate.
func (k *kctx) feed(a *aggSlot, acc accum.Accumulator, mult uint64) error {
	name := a.call.Name
	if a.arg == nil {
		if lower(name) != "count" {
			return fmt.Errorf("%s(*) is not valid; only count(*)", name)
		}
		return acc.Input(value.NewInt(1), mult)
	}
	v, err := k.eval(a.call.Args[0], a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if lower(name) == "count" {
		return acc.Input(value.NewInt(1), mult)
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("%s(...) requires numeric input, got %s", name, v.Kind())
	}
	return acc.Input(value.NewFloat(f), mult)
}

// sqlGroup is one grouping key's state: its key values (null for keys
// its grouping set excludes), one accumulator per aggregate slot, and
// its representative (first) binding row, which group scope reads.
type sqlGroup struct {
	keyVals []value.Value
	aggs    []accum.Accumulator
	rep     int
}

// emitGrouped evaluates the SQL-style grouped output for one fragment.
// With GroupingSets set (GROUPING SETS / CUBE / ROLLUP, Example 12),
// each grouping set aggregates independently and the result is the
// outer union: grouping keys excluded from a set read as null — the
// very materialized union table whose post-processing cost Section 8
// contrasts with dedicated accumulators.
func (rs *runState) emitGrouped(sel *gsql.SelectExpr, out *gsql.SelectOutput, co *compiledOutput, bt *bindingTable) (*Table, error) {
	groupingSets := sel.GroupingSets
	if groupingSets == nil {
		all := make([]int, len(sel.GroupBy))
		for i := range all {
			all[i] = i
		}
		groupingSets = [][]int{all}
	}
	inSet := make([][]bool, len(groupingSets))
	for si, set := range groupingSets {
		inSet[si] = make([]bool, len(sel.GroupBy))
		for _, ki := range set {
			inSet[si][ki] = true
		}
	}

	k := rs.bindScope(co.p, bt, "")
	defer co.p.putBind(k.b)
	k.out = co
	groups := map[string]*sqlGroup{}
	var order []*sqlGroup
	for ri := range bt.rows {
		row := &bt.rows[ri]
		k.row = row
		rowKeys := make([]value.Value, len(sel.GroupBy))
		for i, ke := range sel.GroupBy {
			kv, err := k.eval(ke, co.keys[i])
			if err != nil {
				return nil, fmt.Errorf("GROUP BY: %w", err)
			}
			rowKeys[i] = kv
		}
		for si := range groupingSets {
			keyVals := make([]value.Value, len(sel.GroupBy))
			for i := range keyVals {
				if inSet[si][i] {
					keyVals[i] = rowKeys[i]
				} else {
					keyVals[i] = value.Null
				}
			}
			key := fmt.Sprintf("%d|%s", si, value.NewTuple(keyVals).Key())
			g, ok := groups[key]
			if !ok {
				g = &sqlGroup{keyVals: keyVals, rep: ri}
				for _, a := range co.aggs {
					acc, err := newAggregate(a.call)
					if err != nil {
						return nil, err
					}
					g.aggs = append(g.aggs, acc)
				}
				groups[key] = g
				order = append(order, g)
			}
			for j := range co.aggs {
				if err := k.feed(&co.aggs[j], g.aggs[j], row.mult); err != nil {
					return nil, err
				}
			}
		}
	}

	t := &Table{}
	for _, item := range out.Items {
		t.Cols = append(t.Cols, itemLabel(item))
	}
	type orderedRow struct {
		vals []value.Value
		keys []value.Value
	}
	var rows []orderedRow
	for _, g := range order {
		k.row, k.grp = &bt.rows[g.rep], g
		if sel.Having != nil {
			hv, err := k.eval(sel.Having, co.having)
			if err != nil {
				return nil, fmt.Errorf("HAVING: %w", err)
			}
			if !hv.Truthy() {
				continue
			}
		}
		vals, keys, err := k.evalOutput(sel, out, co)
		if err != nil {
			return nil, err
		}
		rows = append(rows, orderedRow{vals: vals, keys: keys})
	}
	if len(sel.OrderBy) > 0 {
		keys := make([][]value.Value, len(rows))
		for i, r := range rows {
			keys[i] = r.keys
		}
		idx := sortIndexByKeys(keys, sel.OrderBy)
		sorted := make([]orderedRow, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if sel.Limit != nil {
		n, err := rs.evalLimit(sel.Limit)
		if err != nil {
			return nil, err
		}
		if int64(len(rows)) > n {
			rows = rows[:n]
		}
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, r.vals)
	}
	return t, nil
}
