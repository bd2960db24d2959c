package core

import (
	"fmt"
	"testing"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
)

// refExpandHop is the oracle for the two-pass hop builder: the
// row-by-row expansion it replaced. Every output row gets its own verts
// (and edges) slice, the output grows by append, and a counted hop is
// always followed by compress(), distinct or not. It runs serially:
// the production builder is bit-identical to its own serial pass.
func refExpandHop(rs *runState, bt *bindingTable, hop *gsql.Hop, curCol, boundCol int, rebind bool, filter targetFilter) ([]bindingRow, error) {
	if sym, ok := hop.Darpe.(*darpe.Symbol); ok {
		return refExpandSingleHop(rs, bt, hop, sym, curCol, boundCol, rebind, filter)
	}
	next, err := refExpandCountedHop(rs, bt, hop, curCol, boundCol, rebind, filter)
	if err != nil {
		return nil, err
	}
	bt.rows = next
	bt.compress()
	return bt.rows, nil
}

func refExpandSingleHop(rs *runState, bt *bindingTable, hop *gsql.Hop, sym *darpe.Symbol, curCol, boundCol int, rebind bool, filter targetFilter) ([]bindingRow, error) {
	g := rs.g
	edgeCol := -1
	if hop.EdgeAlias != "" {
		edgeCol = bt.addEdgeAlias(hop.EdgeAlias)
	}
	typeID := -1
	if sym.EdgeType != "" {
		et := g.Schema.EdgeType(sym.EdgeType)
		if et == nil {
			return nil, fmt.Errorf("FROM: unknown edge type %q", sym.EdgeType)
		}
		typeID = et.ID
	}
	var next []bindingRow
	for ri, row := range bt.rows {
		if ri&4095 == 0 {
			if err := rs.checkCancel(); err != nil {
				return nil, err
			}
		}
		for _, h := range g.Neighbors(row.verts[curCol]) {
			if typeID >= 0 && int(h.Type) != typeID {
				continue
			}
			if !adornMatches(sym.Dir, h.Dir) || !filter(h.To) {
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
}

func refExpandCountedHop(rs *runState, bt *bindingTable, hop *gsql.Hop, curCol, boundCol int, rebind bool, filter targetFilter) ([]bindingRow, error) {
	rowSrc, counts, err := rs.resolveCounts(hop, bt.rows, curCol, nil)
	if err != nil {
		return nil, err
	}
	type reach struct {
		targets []graph.VID
		mults   []uint64
	}
	reaches := make([]reach, len(counts))
	for i, c := range counts {
		r := &reaches[i]
		for _, t := range c.Reached {
			if c.Mult[t] > 0 && filter(t) {
				r.targets = append(r.targets, t)
				r.mults = append(r.mults, c.Mult[t])
			}
		}
	}
	var next []bindingRow
	for ri, row := range bt.rows {
		if ri&1023 == 0 {
			if err := rs.checkCancel(); err != nil {
				return nil, err
			}
		}
		r := &reaches[rowSrc[ri]]
		for i, t := range r.targets {
			if rebind {
				if row.verts[boundCol] != t {
					continue
				}
				next = append(next, bindingRow{verts: row.verts, edges: row.edges, mult: satMul(row.mult, r.mults[i])})
				continue
			}
			next = append(next, bindingRow{
				verts: append(append(make([]graph.VID, 0, len(row.verts)+1), row.verts...), t),
				edges: row.edges,
				mult:  satMul(row.mult, r.mults[i]),
			})
		}
	}
	return next, nil
}

// withRefExpansion runs fn with the reference expansion installed.
func withRefExpansion(t *testing.T, fn func()) {
	t.Helper()
	expandHopRef = refExpandHop
	defer func() { expandHopRef = nil }()
	fn()
}
