package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/value"
)

// env carries the per-row evaluation context.
type env struct {
	// vars holds pattern-alias bindings.
	vars map[string]value.Value
	// locals holds ACCUM/POST-ACCUM-clause local variables and
	// prevVacc serves v.@acc' reads inside POST-ACCUM (the value at
	// clause start for accumulators the clause has overwritten). Only
	// the clause interpreter in interp_test.go sets them; the compiled
	// kernels keep both in kctx.
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

func (rs *runState) baseEnv() *env { return &env{} }

// prevKey names one vertex's accumulator in a POST-ACCUM @acc' record.
type prevKey struct {
	vid  graph.VID
	name string
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

// evalIn implements membership: element IN list/set/tuple, or key IN
// map.
func evalIn(l, r value.Value) (value.Value, error) {
	switch r.Kind() {
	case value.KindList, value.KindSet, value.KindTuple:
		for _, e := range r.Elems() {
			if value.Equal(l, e) {
				return value.NewBool(true), nil
			}
		}
		return value.NewBool(false), nil
	case value.KindMap:
		for _, p := range r.Pairs() {
			if value.Equal(l, p.Key) {
				return value.NewBool(true), nil
			}
		}
		return value.NewBool(false), nil
	default:
		return value.Null, fmt.Errorf("IN requires a collection right-hand side, got %s", r.Kind())
	}
}

// aggregateNames are the SQL-style aggregate functions recognized in
// grouped SELECT blocks.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func isAggregateCall(c *gsql.Call) bool {
	return c.Recv == nil && aggregateNames[lower(c.Name)] && len(c.Args) == 1
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
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
			return value.NewInt(int64(rs.g.OutDegree(vid))), nil
		case 1:
			et, err := rs.eval(n.Args[0], en)
			if err != nil {
				return value.Null, err
			}
			if et.Kind() != value.KindString {
				return value.Null, fmt.Errorf("outdegree edge type must be a string")
			}
			return value.NewInt(int64(rs.g.OutDegreeByType(vid, et.Str()))), nil
		default:
			return value.Null, fmt.Errorf("outdegree takes at most one argument")
		}
	case "degree":
		return value.NewInt(int64(rs.g.Degree(vid))), nil
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

// evalBuiltin dispatches scalar builtin functions.
func evalBuiltin(name string, args []value.Value) (value.Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	float1 := func() (float64, error) {
		if err := arity(1); err != nil {
			return 0, err
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return 0, fmt.Errorf("%s requires a numeric argument, got %s", name, args[0].Kind())
		}
		return f, nil
	}
	str1 := func(name string, args []value.Value) (string, error) {
		if len(args) != 1 || args[0].Kind() != value.KindString {
			return "", fmt.Errorf("%s takes one string argument", name)
		}
		return args[0].Str(), nil
	}
	str2 := func(name string, args []value.Value) (string, string, error) {
		if len(args) != 2 || args[0].Kind() != value.KindString || args[1].Kind() != value.KindString {
			return "", "", fmt.Errorf("%s takes two string arguments", name)
		}
		return args[0].Str(), args[1].Str(), nil
	}
	dt1 := func() (time.Time, error) {
		if err := arity(1); err != nil {
			return time.Time{}, err
		}
		if args[0].Kind() != value.KindDatetime {
			return time.Time{}, fmt.Errorf("%s requires a datetime argument, got %s", name, args[0].Kind())
		}
		return time.Unix(args[0].Datetime(), 0).UTC(), nil
	}
	switch lower(name) {
	case "log":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Log(f)), nil
	case "log2":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Log2(f)), nil
	case "log10":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Log10(f)), nil
	case "exp":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Exp(f)), nil
	case "sqrt":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Sqrt(f)), nil
	case "abs":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		return value.Abs(args[0])
	case "ceil":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Ceil(f)), nil
	case "floor":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Floor(f)), nil
	case "pow":
		if err := arity(2); err != nil {
			return value.Null, err
		}
		x, ok1 := args[0].AsFloat()
		y, ok2 := args[1].AsFloat()
		if !ok1 || !ok2 {
			return value.Null, fmt.Errorf("pow requires numeric arguments")
		}
		return value.NewFloat(math.Pow(x, y)), nil
	case "float", "to_float":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(f), nil
	case "int", "to_int":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		i, ok := args[0].AsInt()
		if !ok {
			return value.Null, fmt.Errorf("to_int requires a numeric argument")
		}
		return value.NewInt(i), nil
	case "to_string", "str":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		return value.NewString(args[0].String()), nil
	case "length", "str_length":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("length requires a string, got %s", args[0].Kind())
		}
		return value.NewInt(int64(len(args[0].Str()))), nil
	case "size":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		switch args[0].Kind() {
		case value.KindList, value.KindSet, value.KindTuple:
			return value.NewInt(int64(len(args[0].Elems()))), nil
		case value.KindMap:
			return value.NewInt(int64(len(args[0].Pairs()))), nil
		case value.KindString:
			return value.NewInt(int64(len(args[0].Str()))), nil
		}
		return value.Null, fmt.Errorf("size requires a collection or string")
	case "to_datetime":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("to_datetime requires a string")
		}
		return graph.ParseDatetime(args[0].Str())
	case "epoch_to_datetime":
		if err := arity(1); err != nil {
			return value.Null, err
		}
		i, ok := args[0].AsInt()
		if !ok {
			return value.Null, fmt.Errorf("epoch_to_datetime requires an int")
		}
		return value.NewDatetime(i), nil
	case "datetime_to_epoch":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(t.Unix()), nil
	case "year":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Year())), nil
	case "month":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Month())), nil
	case "day":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Day())), nil
	case "hour":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Hour())), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	case "round":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(math.Round(f)), nil
	case "sign":
		f, err := float1()
		if err != nil {
			return value.Null, err
		}
		switch {
		case f > 0:
			return value.NewInt(1), nil
		case f < 0:
			return value.NewInt(-1), nil
		}
		return value.NewInt(0), nil
	case "upper":
		s, err := str1(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(strings.ToUpper(s)), nil
	case "lower":
		s, err := str1(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(strings.ToLower(s)), nil
	case "trim":
		s, err := str1(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewString(strings.TrimSpace(s)), nil
	case "contains":
		s, sub, err := str2(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(strings.Contains(s, sub)), nil
	case "starts_with":
		s, sub, err := str2(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(strings.HasPrefix(s, sub)), nil
	case "ends_with":
		s, sub, err := str2(name, args)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(strings.HasSuffix(s, sub)), nil
	case "substr":
		if err := arity(3); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindString {
			return value.Null, fmt.Errorf("substr requires a string, got %s", args[0].Kind())
		}
		start, ok1 := args[1].AsInt()
		length, ok2 := args[2].AsInt()
		if !ok1 || !ok2 || start < 0 || length < 0 {
			return value.Null, fmt.Errorf("substr requires non-negative int offsets")
		}
		s := args[0].Str()
		if start > int64(len(s)) {
			start = int64(len(s))
		}
		end := start + length
		if end > int64(len(s)) {
			end = int64(len(s))
		}
		return value.NewString(s[start:end]), nil
	case "day_of_week":
		t, err := dt1()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(t.Weekday())), nil
	case "min":
		if len(args) < 2 {
			return value.Null, fmt.Errorf("scalar min takes at least 2 arguments")
		}
		out := args[0]
		for _, a := range args[1:] {
			out = value.MinOf(out, a)
		}
		return out, nil
	case "max":
		if len(args) < 2 {
			return value.Null, fmt.Errorf("scalar max takes at least 2 arguments")
		}
		out := args[0]
		for _, a := range args[1:] {
			out = value.MaxOf(out, a)
		}
		return out, nil
	default:
		return value.Null, fmt.Errorf("unknown function %q", name)
	}
}
