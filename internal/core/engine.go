// Package core implements the paper's primary contribution: the GSQL
// execution engine with accumulator-based aggregation. Query blocks
// evaluate FROM patterns into a compressed binding table (distinct
// binding → multiplicity, Appendix A), run the ACCUM clause under
// snapshot map/reduce semantics (Section 4.3) — in parallel across
// binding shards, with worker-local accumulator deltas merged by each
// accumulator's ⊕ combiner — then run POST-ACCUM once per distinct
// vertex (Section 4.4), and finally produce vertex sets and output
// tables (multi-output SELECT, Example 5). Pattern hops containing
// Kleene stars are evaluated by the polynomial path-counting engine of
// package match under the default all-shortest-paths semantics, or by
// the enumeration baselines when configured (Section 7.1's
// comparison).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/match"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// Options configures an Engine.
type Options struct {
	// Semantics selects the path-legality flavor for pattern hops
	// containing repetition. The default (AllShortestPaths) is the
	// polynomial-counting engine; NonRepeatedEdge / NonRepeatedVertex
	// enumerate explicitly and model the competing systems.
	Semantics match.Semantics
	// Workers bounds ACCUM-phase parallelism; 0 means GOMAXPROCS.
	Workers int
	// NoMultiplicityShortcut disables the Appendix A compressed
	// binding-table shortcut: a binding with multiplicity μ executes
	// the ACCUM clause μ times instead of once. Exists for the
	// ablation benchmark only.
	NoMultiplicityShortcut bool
	// EnumLimits bounds the enumeration baselines.
	EnumLimits match.EnumLimits
	// CountCacheSize caps the engine-level LRU of single-source SDMC
	// count results reused across runs (invalidated by graph topology
	// mutation). 0 selects a default cap; negative disables the cache.
	CountCacheSize int
	// MinParallelRows is the binding-row count below which FROM-clause
	// expansion stays serial (sharding overhead dominates on tiny
	// tables). 0 selects a default; set 1 to force parallel expansion
	// whenever Workers allows (differential tests do).
	MinParallelRows int
}

// Engine installs and runs GSQL queries against one graph. An Engine
// is safe for concurrent use: each Run owns its accumulator state, the
// shared catalog/caches are mutex-guarded, and every run executes
// against a pinned immutable graph snapshot (graph.Snapshot), so
// queries proceed lock-free while the graph head is being mutated.
type Engine struct {
	// g holds the engine's graph head behind an atomic pointer so runs
	// pinning a snapshot never race a concurrent SetGraph (the
	// replication follower swaps graphs on re-bootstrap).
	g    atomic.Pointer[graph.Graph]
	opts Options

	mu        sync.Mutex
	queries   map[string]*gsql.Query
	dfaCache  map[string]*darpe.DFA
	relTables map[string]*RelTable
	// plans caches per-query compilation artifacts (compiled clause
	// programs + fusion groups), built at Install alongside the DFA
	// cache.
	plans map[string]*queryPlan

	// counts caches single-source SDMC results across runs (nil when
	// disabled); it carries its own lock and epoch guard. SetGraph
	// swaps it while runs read it, hence the atomic pointer.
	counts atomic.Pointer[countCache]
}

// New returns an engine over the graph.
func New(g *graph.Graph, opts Options) *Engine {
	e := &Engine{
		opts:     opts,
		queries:  make(map[string]*gsql.Query),
		dfaCache: make(map[string]*darpe.DFA),
		plans:    make(map[string]*queryPlan),
	}
	e.g.Store(g)
	e.counts.Store(newCountCache(g, opts.CountCacheSize))
	return e
}

// Graph returns the engine's graph head.
func (e *Engine) Graph() *graph.Graph { return e.g.Load() }

// SetGraph repoints the engine at a different graph and resets the
// graph-bound caches (the SDMC count cache; the DFA cache, compiled
// plans and relational tables survive — they depend on query text and
// schema, not graph contents). The replication follower uses it after
// a snapshot re-bootstrap replaces its store; the new graph must carry
// the same schema as the old one, since installed queries were
// validated against it. The swap is atomic: in-flight runs keep the
// snapshot they pinned from the old graph and complete against it,
// while new runs pin from the new head. The caller serializes SetGraph
// against mutations (the serving layer's writer lock).
func (e *Engine) SetGraph(g *graph.Graph) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.g.Store(g)
	e.counts.Store(newCountCache(g, e.opts.CountCacheSize))
}

// Install parses GSQL source and registers its queries (the CREATE
// QUERY / INSTALL QUERY workflow collapsed into one step).
func (e *Engine) Install(src string) error {
	f, err := gsql.Parse(src)
	if err != nil {
		return fmt.Errorf("core: %w: %w", ErrParse, err)
	}
	for _, q := range f.Queries {
		if err := e.validate(q); err != nil {
			return fmt.Errorf("core: query %s: %w: %w", q.Name, ErrParse, err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, q := range f.Queries {
		if _, dup := e.queries[q.Name]; dup {
			return fmt.Errorf("core: %w: %q", ErrDuplicateQuery, q.Name)
		}
	}
	for _, q := range f.Queries {
		e.queries[q.Name] = q
		// Compile the ACCUM/POST-ACCUM kernels and fusion groups now,
		// once, so runs pay only the cheap per-clause bind step.
		// Compilation is total: every clause runs compiled.
		e.plans[q.Name] = compileQuery(e, q)
	}
	return nil
}

// Queries lists installed query names, sorted so CLI and test output
// is deterministic rather than map-iteration-ordered.
func (e *Engine) Queries() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.queries))
	for name := range e.queries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// dfa compiles (with caching) the DFA for a DARPE, reporting whether
// the result came from the cache. Compilation runs outside the catalog
// mutex (double-checked insert) so one slow DARPE determinization
// cannot stall concurrent Runs that only need cache hits; a racing
// duplicate compile is harmless — deterministic input, first insert
// wins.
func (e *Engine) dfa(text string, expr darpe.Expr) (d *darpe.DFA, cached bool, err error) {
	e.mu.Lock()
	d, ok := e.dfaCache[text]
	e.mu.Unlock()
	if ok {
		return d, true, nil
	}
	d, err = darpe.CompileDFA(expr)
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prior, ok := e.dfaCache[text]; ok {
		return prior, true, nil
	}
	e.dfaCache[text] = d
	return d, false, nil
}

func (e *Engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Workers reports the engine's effective ACCUM-phase parallelism
// (Options.Workers, or GOMAXPROCS when unset). The serving layer sizes
// its admission semaphore from it.
func (e *Engine) Workers() int { return e.workers() }

// Table is a named result table.
type Table struct {
	Name string
	Cols []string
	Rows [][]value.Value
}

// String renders the table for display.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Cols, "\t"))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sb.WriteString(strings.Join(parts, "\t"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Result is the outcome of one query run.
type Result struct {
	// Tables holds every SELECT ... INTO output by name.
	Tables map[string]*Table
	// Printed holds PRINT outputs in order.
	Printed []*Table
	// Returned holds the RETURN value (nil if the query does not
	// return).
	Returned *Table
	// Stats carries run-level execution counters for observability.
	Stats RunStats
	// Profile is the run's span tree when the context carried a trace
	// root (trace.NewContext); nil for untraced runs. The engine does
	// not End the root — the caller that created it does, after which
	// it can be rendered (trace.Render) or marshaled.
	Profile *trace.Span

	// globals are the run's global accumulators in their final state.
	// The run that owned them has finished, so Global reads them without
	// a lock; a value is built only when asked for.
	globals map[string]accum.Accumulator
}

// Global returns the final value of the query's global accumulator
// @@name (diagnostics and tests), materialised on each call; ok is
// false when the query declares no such accumulator.
func (r *Result) Global(name string) (v value.Value, ok bool) {
	a, ok := r.globals[name]
	if !ok {
		return value.Null, false
	}
	return a.Value(), true
}

// GlobalNames lists the query's global accumulators, sorted.
func (r *Result) GlobalNames() []string {
	names := make([]string, 0, len(r.globals))
	for name := range r.globals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunStats aggregates execution counters over one run — the raw
// material for the serving layer's histograms.
type RunStats struct {
	// BindingRows counts compressed binding-table rows that survived
	// WHERE across every SELECT block of the run (the unit the ACCUM
	// phase iterates).
	BindingRows int64
	// Selects counts SELECT blocks executed.
	Selects int64
	// CountCacheHits / CountCacheMisses count distinct-source lookups
	// against the engine's SDMC count cache during counted-hop
	// expansion. A warm re-run of an installed query shows misses == 0.
	CountCacheHits   int64
	CountCacheMisses int64
	// SDMCRuns counts single-source count runs actually executed (BFS
	// or enumeration) — cache hits don't run one.
	SDMCRuns int64
	// ExpandShards counts the shards FROM-clause hop expansion was
	// split into, summed over hops (1 per hop when serial).
	ExpandShards int64
	// AccumCompiledStmts counts ACCUM and POST-ACCUM statements
	// executed through the compiled kernels, per clause execution (a
	// clause run inside a loop counts each iteration).
	AccumCompiledStmts int64
	// AccumInterpretedStmts is always 0: every clause compiles, and
	// the tree-walking interpreter exists only as a test oracle. It is
	// kept because the benchmark still reads the series it feeds.
	AccumInterpretedStmts int64
	// AccumUnboxedMisses counts compiled statement executions whose
	// typed (unboxed) evaluation met a value it did not predict — a
	// wrong kind, an int/int zero divisor, a receiver that is not a
	// vertex — and re-ran boxed.
	AccumUnboxedMisses int64
	// FusionBlocksFused counts SELECT blocks that ran as part of a
	// fused group (one shared traversal) instead of standalone.
	FusionBlocksFused int64
}

// Run executes an installed query with the given arguments.
func (e *Engine) Run(name string, args map[string]value.Value) (*Result, error) {
	return e.RunCtx(context.Background(), name, args)
}

// RunCtx executes an installed query under a context against a
// snapshot pinned at admission: the run observes the graph exactly as
// of its first instruction no matter how many mutations commit while
// it executes, and it never blocks (or is blocked by) the writer.
// Cancellation is cooperative: the interpreter checks between
// statements, the parallel ACCUM phase between binding batches, and
// the SDMC kernels inside their BFS frontier loops, so a expired
// deadline stops in-flight work (including spawned workers) instead of
// leaking it. A run stopped by the context returns an error satisfying
// errors.Is(err, ErrCancelled).
func (e *Engine) RunCtx(ctx context.Context, name string, args map[string]value.Value) (*Result, error) {
	return e.RunOn(ctx, e.Graph().Snapshot(), name, args)
}

// RunOn is RunCtx against a caller-pinned graph snapshot (or any
// *graph.Graph the caller guarantees is stable for the duration of the
// run). The serving layer uses it to pin one snapshot per request and
// share it between parameter decoding, execution, and rendering.
func (e *Engine) RunOn(ctx context.Context, g *graph.Graph, name string, args map[string]value.Value) (*Result, error) {
	// One context lookup per run: sp is nil for untraced runs, and every
	// span operation below degrades to a pointer test.
	sp := trace.FromContext(ctx)
	sp.SetStr("query", name)
	// The catalog holds pre-parsed queries (parse happened at Install),
	// so the run's "parse" stage is the catalog lookup; cached=true
	// records that the source text itself was not re-parsed.
	psp := sp.Start("parse")
	psp.SetBool("cached", true)
	e.mu.Lock()
	q, ok := e.queries[name]
	plan := e.plans[name]
	e.mu.Unlock()
	psp.End()
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownQuery, name)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: query %s: %w", name, cancelErr(ctx))
	}
	// bind covers parameter coercion and accumulator declaration/init.
	bsp := sp.Start("bind")
	rs, err := newRunState(e, g, q, plan, args)
	bsp.End()
	if err != nil {
		return nil, err
	}
	rs.ctx = ctx
	rs.done = ctx.Done()
	if sp != nil {
		bsp.SetInt("params", int64(len(rs.params)))
		sp.SetStr("semantics", rs.semantics.String())
		rs.prof = sp
		rs.res.Profile = sp
	}
	if _, err := rs.execStmts(q.Stmts); err != nil {
		// Catch-all cancellation mapping: failures caused by the
		// context expiring (wherever they surfaced) report as
		// ErrCancelled even if a deeper layer returned the raw
		// context error.
		if ctx.Err() != nil && !errors.Is(err, ErrCancelled) {
			err = fmt.Errorf("%w: %v", ErrCancelled, err)
		}
		return nil, fmt.Errorf("core: query %s: %w", name, err)
	}
	rs.res.globals = rs.globals
	return rs.res, nil
}

// InstallAndRun parses, installs and runs a single query in one step
// (convenience for examples and tests).
func (e *Engine) InstallAndRun(src string, args map[string]value.Value) (*Result, error) {
	return e.InstallAndRunCtx(context.Background(), src, args)
}

// InstallAndRunCtx is InstallAndRun under a context (see RunCtx).
func (e *Engine) InstallAndRunCtx(ctx context.Context, src string, args map[string]value.Value) (*Result, error) {
	// Unlike a run of an installed query, this path really parses
	// source, so a traced call sees the true parse + validate cost
	// under this span (the nested RunCtx adds its own cached "parse").
	isp := trace.FromContext(ctx).Start("install")
	defer isp.End()
	f, err := gsql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrParse, err)
	}
	if len(f.Queries) != 1 {
		return nil, fmt.Errorf("core: InstallAndRun expects exactly one query, got %d", len(f.Queries))
	}
	if err := e.Install(src); err != nil {
		return nil, err
	}
	isp.End()
	return e.RunCtx(ctx, f.Queries[0].Name, args)
}

// QueryParams returns the parameter signature of an installed query
// (the serving layer uses it to decode JSON arguments by declared
// type).
func (e *Engine) QueryParams(name string) ([]gsql.Param, error) {
	e.mu.Lock()
	q, ok := e.queries[name]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: %w: %q", ErrUnknownQuery, name)
	}
	return q.Params, nil
}
