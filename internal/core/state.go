package core

import (
	"context"
	"fmt"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/match"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// runState is the per-run interpreter state: parameter bindings,
// scalar locals, named vertex sets, accumulator instances and the
// accumulating result.
type runState struct {
	e *Engine
	// g is the run's pinned graph snapshot: every graph read of the run
	// goes through it, so the run observes one consistent epoch even
	// while the head graph is being mutated concurrently.
	g *graph.Graph
	q *gsql.Query
	// ctx/done drive cooperative cancellation. done is ctx.Done(),
	// cached because it is polled in hot loops; nil (context.Background)
	// means the checks compile down to one predictable branch.
	ctx  context.Context
	done <-chan struct{}
	// prof is the run's trace root (nil when the run is untraced);
	// SELECT blocks attach their span subtrees to it in execution
	// order. Nil-receiver span methods make every instrumentation
	// point a single branch when tracing is off.
	prof *trace.Span
	// semantics is the effective path-legality flavor: the query's
	// SEMANTICS annotation when present, else the engine default.
	semantics match.Semantics
	params    map[string]value.Value
	locals    map[string]value.Value
	vsets     map[string][]graph.VID
	// vsetLookups memoizes per-vset membership maps so hops naming the
	// same vset don't rebuild the map per hop; setVSet invalidates the
	// entry when the vset is reassigned. Built only between parallel
	// phases (filters are constructed before expansion shards spawn),
	// so the maps are read-only while workers run.
	vsetLookups map[string]map[graph.VID]bool

	globals map[string]accum.Accumulator
	vaccs   map[string]*vaccStore

	// plan holds the query's compiled clause programs and fusion
	// groups.
	plan *queryPlan

	res *Result
}

// vaccStore holds one family of vertex accumulators (one lazy instance
// per vertex, as the paper's "@" declarations demand). Reads of
// untouched vertices return the cached initial value WITHOUT
// materializing a slot — parallel ACCUM workers read concurrently, so
// reads must not mutate the store; slots are created only by the
// (single-threaded) reduce and POST-ACCUM phases via get.
type vaccStore struct {
	spec    *accum.Spec
	init    value.Value // initializer; Null = type default
	initVal value.Value // Value() of a fresh (initialized) instance
	slots   []accum.Accumulator
}

func newVaccStore(spec *accum.Spec, init value.Value, n int) (*vaccStore, error) {
	proto, err := accum.New(spec)
	if err != nil {
		return nil, err
	}
	if !init.IsNull() {
		if err := proto.Assign(init); err != nil {
			return nil, err
		}
	}
	return &vaccStore{
		spec:    spec,
		init:    init,
		initVal: proto.Value(),
		slots:   make([]accum.Accumulator, n),
	}, nil
}

// get returns the vertex's live accumulator, creating it at its
// initial value on first use. NOT safe for concurrent callers; the
// parallel map phase must use peekValue instead.
func (s *vaccStore) get(v graph.VID) (accum.Accumulator, error) {
	if a := s.slots[v]; a != nil {
		return a, nil
	}
	a, err := accum.New(s.spec)
	if err != nil {
		return nil, err
	}
	if !s.init.IsNull() {
		if err := a.Assign(s.init); err != nil {
			return nil, err
		}
	}
	s.slots[v] = a
	return a, nil
}

// peekValue reads the accumulator value without mutating the store —
// safe for the concurrent acc-executions of the Map phase.
func (s *vaccStore) peekValue(v graph.VID) (value.Value, error) {
	if a := s.slots[v]; a != nil {
		return a.Value(), nil
	}
	return s.initVal, nil
}

// peekFloat / peekInt are peekValue for the compiled kernels' typed
// reads: the value as a machine scalar, ok false when it is not of
// that kind (the caller then takes the boxed path).
func (s *vaccStore) peekFloat(v graph.VID) (float64, bool) {
	if a := s.slots[v]; a != nil {
		return accum.FloatOf(a)
	}
	return s.initVal.TryFloat()
}

func (s *vaccStore) peekInt(v graph.VID) (int64, bool) {
	if a := s.slots[v]; a != nil {
		return accum.IntOf(a)
	}
	return s.initVal.TryInt()
}

func newRunState(e *Engine, g *graph.Graph, q *gsql.Query, plan *queryPlan, args map[string]value.Value) (*runState, error) {
	rs := &runState{
		e:         e,
		g:         g,
		q:         q,
		plan:      plan,
		ctx:       context.Background(),
		semantics: e.opts.Semantics,
		params:    make(map[string]value.Value, len(q.Params)),
		locals:    map[string]value.Value{},
		vsets:     map[string][]graph.VID{},
		globals:   map[string]accum.Accumulator{},
		vaccs:     map[string]*vaccStore{},
		res:       &Result{Tables: map[string]*Table{}},
	}
	switch q.Semantics {
	case "":
	case "asp", "shortest":
		rs.semantics = match.AllShortestPaths
	case "nre", "non_repeated_edge":
		rs.semantics = match.NonRepeatedEdge
	case "nrv", "non_repeated_vertex":
		rs.semantics = match.NonRepeatedVertex
	case "exists":
		rs.semantics = match.ShortestExists
	default:
		return nil, fmt.Errorf("unknown SEMANTICS %q", q.Semantics)
	}
	// Bind parameters.
	for _, p := range q.Params {
		v, ok := args[p.Name]
		if !ok {
			return nil, fmt.Errorf("missing argument %q", p.Name)
		}
		cv, err := coerceParam(p, v)
		if err != nil {
			return nil, err
		}
		rs.params[p.Name] = cv
	}
	for name := range args {
		if _, ok := rs.params[name]; !ok {
			return nil, fmt.Errorf("unknown argument %q", name)
		}
	}
	// Create accumulators; initializers may reference parameters.
	for _, d := range q.Decls {
		var init value.Value
		if d.Init != nil {
			v, err := rs.eval(d.Init, rs.baseEnv())
			if err != nil {
				return nil, fmt.Errorf("initializing %s: %w", declName(d), err)
			}
			init = v
		}
		if d.Global {
			if _, dup := rs.globals[d.Name]; dup {
				return nil, fmt.Errorf("duplicate accumulator @@%s", d.Name)
			}
			a, err := accum.New(d.Spec)
			if err != nil {
				return nil, err
			}
			if !init.IsNull() {
				if err := a.Assign(init); err != nil {
					return nil, fmt.Errorf("initializing @@%s: %w", d.Name, err)
				}
			}
			rs.globals[d.Name] = a
		} else {
			if _, dup := rs.vaccs[d.Name]; dup {
				return nil, fmt.Errorf("duplicate accumulator @%s", d.Name)
			}
			store, err := newVaccStore(d.Spec, init, g.NumVertices())
			if err != nil {
				return nil, fmt.Errorf("declaring @%s: %w", d.Name, err)
			}
			rs.vaccs[d.Name] = store
		}
	}
	return rs, nil
}

// checkCancel is the interpreter's cooperative cancellation
// checkpoint: nil while the run's context is live, ErrCancelled-
// wrapped once it is done. Hot loops call it on a stride so the
// common (background-context) case costs one nil compare.
func (rs *runState) checkCancel() error {
	if rs.done == nil {
		return nil
	}
	select {
	case <-rs.done:
		return cancelErr(rs.ctx)
	default:
		return nil
	}
}

func declName(d *gsql.AccumDecl) string {
	if d.Global {
		return "@@" + d.Name
	}
	return "@" + d.Name
}

func coerceParam(p gsql.Param, v value.Value) (value.Value, error) {
	want := p.Type.Kind
	switch {
	case v.Kind() == want:
		return v, nil
	case want == value.KindFloat && v.Kind() == value.KindInt:
		return value.NewFloat(float64(v.Int())), nil
	case want == value.KindDatetime && v.Kind() == value.KindInt:
		return value.NewDatetime(v.Int()), nil
	}
	return value.Null, fmt.Errorf("argument %q: expected %s, got %s", p.Name, want, v.Kind())
}

// setVSet (re)binds a named vertex set, dropping any memoized
// membership map for the old binding. Every vset assignment must go
// through here, or a stale lookup could outlive its set.
func (rs *runState) setVSet(name string, ids []graph.VID) {
	rs.vsets[name] = ids
	if rs.vsetLookups != nil {
		delete(rs.vsetLookups, name)
	}
}

// vsetLookup returns the memoized membership map for a named vset,
// building it on first use.
func (rs *runState) vsetLookup(name string, ids []graph.VID) map[graph.VID]bool {
	if set, ok := rs.vsetLookups[name]; ok {
		return set
	}
	set := make(map[graph.VID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	if rs.vsetLookups == nil {
		rs.vsetLookups = make(map[string]map[graph.VID]bool)
	}
	rs.vsetLookups[name] = set
	return set
}

// vsetOrType resolves a FROM seed name to vertex ids.
func (rs *runState) vsetOrType(name string) ([]graph.VID, bool) {
	if ids, ok := rs.vsets[name]; ok {
		return ids, true
	}
	if rs.g.Schema.VertexType(name) != nil {
		return rs.g.VerticesOfType(name), true
	}
	return nil, false
}
