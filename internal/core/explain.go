package core

import (
	"fmt"
	"strings"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/match"
)

// Explain renders a human-readable evaluation plan for an installed
// query: per SELECT block, the seed resolution, each hop's strategy
// (adjacency expansion for single-edge patterns vs path counting /
// enumeration for repetition patterns, with the compiled DFA size),
// the clauses present, and the effective path semantics.
func (e *Engine) Explain(name string) (string, error) {
	e.mu.Lock()
	q, ok := e.queries[name]
	plan := e.plans[name]
	e.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("core: %w: %q", ErrUnknownQuery, name)
	}
	var sb strings.Builder
	sem := e.opts.Semantics
	switch q.Semantics {
	case "asp", "shortest":
		sem = match.AllShortestPaths
	case "nre", "non_repeated_edge":
		sem = match.NonRepeatedEdge
	case "nrv", "non_repeated_vertex":
		sem = match.NonRepeatedVertex
	case "exists":
		sem = match.ShortestExists
	}
	fmt.Fprintf(&sb, "QUERY %s", q.Name)
	if len(q.Params) > 0 {
		parts := make([]string, len(q.Params))
		for i, p := range q.Params {
			parts[i] = p.Name
		}
		fmt.Fprintf(&sb, "(%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&sb, "  [path semantics: %v", sem)
	if q.Semantics != "" {
		sb.WriteString(", per-query override")
	}
	sb.WriteString("]\n")
	for _, d := range q.Decls {
		scope := "vertex"
		if d.Global {
			scope = "global"
		}
		fmt.Fprintf(&sb, "  DECL %s %s (%s", declName(d), d.Spec, scope)
		if !d.Spec.OrderInvariant() {
			sb.WriteString(", ORDER-SENSITIVE")
		}
		sb.WriteString(")\n")
	}
	e.explainStmts(&sb, q.Stmts, plan, sem, "  ")
	return sb.String(), nil
}

func (e *Engine) explainStmts(sb *strings.Builder, stmts []gsql.Stmt, plan *queryPlan, sem match.Semantics, indent string) {
	for _, s := range stmts {
		// A statement opening a fused run announces the shared
		// traversal; its member blocks render beneath it.
		if g, ok := plan.fusion[s]; ok {
			fmt.Fprintf(sb, "%sFUSED: %d SELECT blocks share one traversal (%d ACCUM statement(s), one pass)\n",
				indent, len(g.sels), g.nstmts)
		}
		switch n := s.(type) {
		case *gsql.AssignStmt:
			switch rhs := n.Rhs.(type) {
			case *gsql.SelectExpr:
				fmt.Fprintf(sb, "%s%s = SELECT\n", indent, n.Name)
				e.explainSelect(sb, rhs, plan, sem, indent+"  ")
			case *gsql.VSetLit:
				fmt.Fprintf(sb, "%s%s = vertex set {%s}\n", indent, n.Name, strings.Join(rhs.Types, ", "))
			case *gsql.SetOpExpr:
				fmt.Fprintf(sb, "%s%s = vertex-set algebra (%s)\n", indent, n.Name, rhs.Op)
			default:
				fmt.Fprintf(sb, "%s%s = <scalar expression>\n", indent, n.Name)
			}
		case *gsql.SelectStmt:
			fmt.Fprintf(sb, "%sSELECT\n", indent)
			e.explainSelect(sb, n.Sel, plan, sem, indent+"  ")
		case *gsql.AccAssignStmt:
			fmt.Fprintf(sb, "%sglobal accumulator update (%s)\n", indent, n.Op)
		case *gsql.WhileStmt:
			limit := ""
			if n.Limit != nil {
				limit = " with iteration cap"
			}
			fmt.Fprintf(sb, "%sWHILE loop%s\n", indent, limit)
			e.explainStmts(sb, n.Body, plan, sem, indent+"  ")
		case *gsql.IfStmt:
			fmt.Fprintf(sb, "%sIF/THEN", indent)
			if len(n.Else) > 0 {
				sb.WriteString("/ELSE")
			}
			sb.WriteString("\n")
			e.explainStmts(sb, n.Then, plan, sem, indent+"  ")
			e.explainStmts(sb, n.Else, plan, sem, indent+"  ")
		case *gsql.ForeachStmt:
			fmt.Fprintf(sb, "%sFOREACH %s\n", indent, n.Var)
			e.explainStmts(sb, n.Body, plan, sem, indent+"  ")
		case *gsql.PrintStmt:
			fmt.Fprintf(sb, "%sPRINT (%d item(s))\n", indent, len(n.Items))
		case *gsql.ReturnStmt:
			fmt.Fprintf(sb, "%sRETURN\n", indent)
		}
	}
}

func (e *Engine) explainSelect(sb *strings.Builder, sel *gsql.SelectExpr, plan *queryPlan, sem match.Semantics, indent string) {
	for pi := range sel.From {
		pat := &sel.From[pi]
		fmt.Fprintf(sb, "%sseed %s as %q\n", indent, pat.Src.Name, pat.Src.Alias)
		for hi := range pat.Hops {
			hop := &pat.Hops[hi]
			if _, single := hop.Darpe.(*darpe.Symbol); single {
				fmt.Fprintf(sb, "%shop -(%s)- %s:%s  [adjacency expansion", indent, hop.DarpeText, hop.Target.Name, hop.Target.Alias)
				if hop.EdgeAlias != "" {
					fmt.Fprintf(sb, ", edge var %q", hop.EdgeAlias)
				}
				sb.WriteString("]\n")
				continue
			}
			strategy := ""
			switch sem {
			case match.AllShortestPaths:
				strategy = "polynomial path counting (Theorem 6.1), no materialization"
			case match.NonRepeatedEdge, match.NonRepeatedVertex:
				strategy = "explicit path enumeration (worst-case exponential)"
			case match.ShortestExists:
				strategy = "reachability only (multiplicity 1)"
			default:
				strategy = sem.String()
			}
			states := "?"
			if d, _, err := e.dfa(hop.DarpeText, hop.Darpe); err == nil {
				states = fmt.Sprintf("%d", d.NumStates())
			}
			cache := "count cache off"
			if e.counts.Load() != nil {
				cache = "count cache on"
			}
			fmt.Fprintf(sb, "%shop -(%s)- %s:%s  [%s; DFA %s states; %s]\n",
				indent, hop.DarpeText, hop.Target.Name, hop.Target.Alias, strategy, states, cache)
		}
	}
	if sel.Where != nil {
		fmt.Fprintf(sb, "%sWHERE filter\n", indent)
	}
	cs := plan.selects[sel]
	if len(sel.Accum) > 0 {
		fmt.Fprintf(sb, "%sACCUM %d statement(s)  [compiled kernel (%d fast / %d boxed target(s), %d/%d unboxed statement(s), %d resolved attr offset(s)), snapshot map/reduce, parallel, multiplicity shortcut %s]\n",
			indent, len(sel.Accum), fastTargets(cs.acc), boxedTargets(cs.acc), cs.acc.unboxed, cs.acc.stmts, cs.acc.attrOffsets,
			onOff(!e.opts.NoMultiplicityShortcut))
	}
	if len(sel.PostAccum) > 0 {
		fmt.Fprintf(sb, "%sPOST-ACCUM %d statement(s)  [compiled (%d/%d unboxed statement(s), %d resolved attr offset(s)), once per distinct vertex]\n",
			indent, len(sel.PostAccum), cs.post.unboxed, cs.post.stmts, cs.post.attrOffsets)
	}
	if len(sel.GroupBy) > 0 {
		if sel.GroupingSets != nil {
			fmt.Fprintf(sb, "%sGROUP BY %d key(s) over %d grouping set(s) [outer union]\n",
				indent, len(sel.GroupBy), len(sel.GroupingSets))
		} else {
			fmt.Fprintf(sb, "%sGROUP BY %d key(s)\n", indent, len(sel.GroupBy))
		}
	}
	for _, out := range sel.Outputs {
		if out.Into != "" {
			fmt.Fprintf(sb, "%soutput INTO %s (%d column(s))\n", indent, out.Into, len(out.Items))
		}
	}
	if len(sel.OrderBy) > 0 {
		fmt.Fprintf(sb, "%sORDER BY %d key(s)\n", indent, len(sel.OrderBy))
	}
	if sel.Limit != nil {
		fmt.Fprintf(sb, "%sLIMIT\n", indent)
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// fastTargets / boxedTargets count a program's distinct accumulator
// write targets on the unboxed vs boxed delta path.
func fastTargets(p *kprogram) int {
	n := 0
	for i := range p.gwrites {
		if p.gwrites[i].fast != accum.FastNone {
			n++
		}
	}
	for i := range p.vwrites {
		if p.vwrites[i].fast != accum.FastNone {
			n++
		}
	}
	return n
}

func boxedTargets(p *kprogram) int {
	return len(p.gwrites) + len(p.vwrites) - fastTargets(p)
}
