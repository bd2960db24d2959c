package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/match"
	"gsqlgo/internal/replication"
	"gsqlgo/internal/storage"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

// The traced run. The program has spans inside core only, and no span
// that crosses the socket, so the benchmark brackets each layer from
// outside: every op of a stream is executed once per rung, each rung
// one layer further in, on state that saw the same ops in the same
// order. A rung's self time is its median minus the next rung's.
//
//	queries   R0 real-socket request to the child leader
//	          R1 (*server.Server).ServeHTTP in this process
//	          R2 (*core.Engine).RunOn on a pinned Snapshot()
//	          R3 the single-source match.CountASPCtx runs R2 needed
//	writes    W0 real-socket request to the child leader
//	          W1 ServeHTTP over a durable store
//	          W2 ldbc.Apply on a store-observed graph, then WaitDurable
//	          W3 ldbc.Apply on a bare graph
//	          then Store.ReadWALChunk and storage.ApplyRecord on a replica
//
// Each rung owns its graph, so a rung never warms a cache for the next.

// span is one timed call, as trace.json lists it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for an op's outermost rung
	Op      int     `json:"op"`     // index in the stream
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // since the traced run began
	EndUs   float64 `json:"end_us"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, op, name,
		float64(start.Sub(t.t0).Nanoseconds()) / 1e3, float64(end.Sub(t.t0).Nanoseconds()) / 1e3})
	return id
}

// timed runs fn inside a span and returns the span's id and duration.
func (t *tracer) timed(name string, parent, op int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, parent, op, start, end), end.Sub(start)
}

// counted is timed plus the heap allocations fn made. One op runs at a
// time here, so the counts repeat between runs.
func (t *tracer) counted(name string, parent, op int, fn func()) (id int, d time.Duration, allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, d = t.timed(name, parent, op, fn)
	runtime.ReadMemStats(&after)
	return id, d, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// coreStages are the span names core records that do not nest in one
// another: together they are the part of a run some span covers. sdmc
// and dfa nest inside hop; select only groups the others.
var coreStages = []string{"parse", "bind", "hop", "join", "where", "accum", "post_accum", "output"}

// rungs holds one op class's samples, in microseconds.
type rungs struct {
	r0             []float64
	plain, withID  []float64 // R0 without and with X-Trace-Id, pairs that met the same cache state
	r1, r2, r2t    []float64
	matchPart      []float64 // R3 when R2 ran SDMC, else 0
	allocs, bytes  []float64
	stage          map[string][]float64
	staged         []float64 // per op: the sum of coreStages in the traced R2
	w2apply, w2fsy []float64 // W2's two halves
	w3             []float64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ladder is the in-process state the inner rungs run on.
type ladder struct {
	e      *env
	tr     *tracer
	rung1  *inProc        // ServeHTTP over storeA
	storeA *storage.Store // rung 1's durable store
	storeB *storage.Store // rung 2's store; its graph is rung 2's
	run    *core.Engine   // R2, over storeB's graph
	traced *core.Engine   // R2 again with a root span armed, own count cache
	bare   *graph.Graph   // W3
	repl   *graph.Graph   // applies storeB's shipped WAL
	seq    uint64         // replica's read position in storeB's WAL
	off    int64
	dfas   map[string]*darpe.DFA

	rec     *recorder // the inserts the child acknowledged on the way
	byClass map[string]*rungs
	sdmcUs  []float64 // per single-source run
	sdmcAl  []float64
	shipUs  []float64 // per ReadWALChunk
	applyUs []float64 // per ApplyRecord
	ops     int
}

func openStore(dir string) (*storage.Store, error) {
	// gsqld's own options for a leader with -fsync.
	return storage.Open(dir, storage.Options{
		Fsync: true, DeferSync: true, Retain: 8,
		Init: func() (*graph.Graph, error) { return ldbc.Generate(snbConfig()), nil },
	})
}

func newLadder(j *janitor, e *env) (*ladder, error) {
	dir, err := os.MkdirTemp(buildDir, "ladder-")
	if err != nil {
		return nil, err
	}
	j.add(func() { os.RemoveAll(dir) })
	l := &ladder{e: e, tr: &tracer{t0: time.Now()}, rec: newRecorder(),
		dfas: map[string]*darpe.DFA{}, byClass: map[string]*rungs{}}
	if l.storeA, err = openStore(filepath.Join(dir, "rung1")); err != nil {
		return nil, err
	}
	j.add(func() { l.storeA.Close() })
	if l.rung1, err = newInProc(l.storeA.Graph(), l.storeA); err != nil {
		return nil, err
	}
	if l.storeB, err = openStore(filepath.Join(dir, "rung2")); err != nil {
		return nil, err
	}
	j.add(func() { l.storeB.Close() })
	if l.run, err = newEngine(l.storeB.Graph()); err != nil {
		return nil, err
	}
	if l.traced, err = newEngine(l.storeB.Graph()); err != nil {
		return nil, err
	}
	l.bare = ldbc.Generate(snbConfig())
	l.repl = ldbc.Generate(snbConfig())
	l.seq, l.off = l.storeB.Position()
	return l, nil
}

// bind converts an op's JSON-shaped parameters to engine values by the
// query's declared signature, as the server's decoder does.
func bind(eng *core.Engine, g *graph.Graph, o op) (map[string]value.Value, error) {
	specs, err := eng.QueryParams(o.query)
	if err != nil {
		return nil, err
	}
	out := make(map[string]value.Value, len(o.params))
	for _, p := range specs {
		raw, ok := o.params[p.Name]
		if !ok {
			continue
		}
		switch x := raw.(type) {
		case string:
			if p.Type.Kind == value.KindVertex {
				vid, ok := g.VertexByKey(p.Type.VertexType, x)
				if !ok {
					return nil, fmt.Errorf("no %s vertex %q", p.Type.VertexType, x)
				}
				out[p.Name] = value.NewVertex(int64(vid))
			} else {
				out[p.Name] = value.NewString(x)
			}
		case int:
			out[p.Name] = value.NewInt(int64(x))
		case int64:
			if p.Type.Kind == value.KindDatetime {
				out[p.Name] = value.NewDatetime(x)
			} else {
				out[p.Name] = value.NewInt(x)
			}
		case float64:
			out[p.Name] = value.NewFloat(x)
		default:
			return nil, fmt.Errorf("parameter %s: unsupported %T", p.Name, raw)
		}
	}
	return out, nil
}

func (l *ladder) class(c string) *rungs {
	r := l.byClass[c]
	if r == nil {
		r = &rungs{stage: map[string][]float64{}}
		l.byClass[c] = r
	}
	return r
}

// sdmcRuns reads stats.sdmc_runs from a run response.
func sdmcRuns(body []byte) int64 {
	var r struct {
		Stats struct {
			SDMCRuns int64 `json:"sdmc_runs"`
		} `json:"stats"`
	}
	_ = json.Unmarshal(body, &r) // a body that does not parse reads as 0 runs
	return r.Stats.SDMCRuns
}

func (l *ladder) serve1(o op) error {
	_, err := l.rung1.serve(o)
	return err
}

// query climbs down the read rungs with one op.
func (l *ladder) query(i int, o op) error {
	r := l.class(o.class)
	ctx := context.Background()
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	var body, bodyT []byte
	id0, d0 := l.tr.timed("R0 socket", 0, i, func() { var e error; body, e = l.e.do(o, ""); fail(e) })
	_, d0t := l.tr.timed("R0 socket, X-Trace-Id", 0, i, func() { var e error; bodyT, e = l.e.do(o, trace.NewID()); fail(e) })
	id1, d1 := l.tr.timed("R1 server.ServeHTTP", id0, i, func() { fail(l.serve1(o)) })
	if err != nil {
		return err
	}

	snap := l.run.Graph().Snapshot()
	args, err := bind(l.run, snap, o)
	if err != nil {
		return err
	}
	var res *core.Result
	id2, d2, allocs, bytes := l.tr.counted("R2 core.RunOn", id1, i, func() { var e error; res, e = l.run.RunOn(ctx, snap, o.query, args); fail(e) })
	root := trace.New("query")
	_, d2t := l.tr.timed("R2 core.RunOn, traced", id1, i, func() {
		_, e := l.traced.RunOn(trace.NewContext(ctx, root), snap, o.query, args)
		fail(e)
	})
	root.End()
	if err != nil {
		return err
	}

	var d3 time.Duration
	if o.sdmcPattern != "" {
		dfa := l.dfas[o.sdmcPattern]
		if dfa == nil {
			if dfa, err = darpe.Compile(o.sdmcPattern); err != nil {
				return err
			}
			l.dfas[o.sdmcPattern] = dfa
		}
		from := snap.VerticesOfType("Person")
		if !o.sdmcAll {
			v, ok := snap.VertexByKey("Person", o.sdmcFrom)
			if !ok {
				return fmt.Errorf("no Person %q", o.sdmcFrom)
			}
			from = []graph.VID{v}
		}
		var al uint64
		_, d3, al, _ = l.tr.counted("R3 match.CountASPCtx", id2, i, func() {
			for _, v := range from {
				if _, e := match.CountASPCtx(ctx, snap, dfa, v); e != nil {
					fail(e)
				}
			}
		})
		if err != nil {
			return err
		}
		l.sdmcUs = append(l.sdmcUs, us(d3)/float64(len(from)))
		l.sdmcAl = append(l.sdmcAl, float64(al)/float64(len(from)))
	}

	r.r0 = append(r.r0, us(d0))
	if sdmcRuns(body) == sdmcRuns(bodyT) {
		// The second request found the same cache state as the first, so
		// the pair differs by the header alone.
		r.plain, r.withID = append(r.plain, us(d0)), append(r.withID, us(d0t))
	}
	r.r1 = append(r.r1, us(d1))
	r.r2 = append(r.r2, us(d2))
	r.r2t = append(r.r2t, us(d2t))
	r.allocs = append(r.allocs, float64(allocs))
	r.bytes = append(r.bytes, float64(bytes))
	if res.Stats.SDMCRuns > 0 {
		r.matchPart = append(r.matchPart, us(d3))
	} else {
		r.matchPart = append(r.matchPart, 0)
	}
	totals := root.StageTotals()
	var staged time.Duration
	for _, name := range coreStages {
		staged += totals[name]
		r.stage[name] = append(r.stage[name], us(totals[name]))
	}
	r.stage["sdmc"] = append(r.stage["sdmc"], us(totals["sdmc"]))
	r.staged = append(r.staged, us(staged))
	return nil
}

// write climbs down the write rungs with one op, then ships and applies
// what rung 2 logged.
func (l *ladder) write(i int, o op) error {
	r := l.class(o.class)
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	id0, d0 := l.tr.timed("W0 socket", 0, i, func() { fail(l.sendWrite(o)) })
	id1, d1 := l.tr.timed("W1 server.ServeHTTP", id0, i, func() { fail(l.serve1(o)) })
	gB := l.storeB.Graph()
	id2, d2a := l.tr.timed("W2 ldbc.Apply, store observing", id1, i, func() { fail(ldbc.Apply(gB, o.mut)) })
	seq, end := l.storeB.Position()
	_, d2b := l.tr.timed("W2 Store.WaitDurable", id1, i, func() { fail(l.storeB.WaitDurable(seq, end)) })
	_, d3 := l.tr.timed("W3 ldbc.Apply, bare graph", id2, i, func() { fail(ldbc.Apply(l.bare, o.mut)) })
	if err != nil {
		return err
	}
	r.r0 = append(r.r0, us(d0))
	r.r1 = append(r.r1, us(d1))
	r.w2apply = append(r.w2apply, us(d2a))
	r.w2fsy = append(r.w2fsy, us(d2b))
	r.w3 = append(r.w3, us(d3))
	return l.ship(i)
}

// ship reads what rung 2's store logged since the last call and applies
// it to the replica graph, as a follower's tail loop does.
func (l *ladder) ship(i int) error {
	record := i >= 0 // priming ships too, untimed
	for {
		var chunk storage.WALChunk
		var err error
		start := time.Now()
		chunk, err = l.storeB.ReadWALChunk(l.seq, l.off, 0)
		d := time.Since(start)
		if err != nil {
			return err
		}
		payloads, err := replication.DecodeFrames(chunk.Data)
		if err != nil {
			return err
		}
		if record && len(payloads) > 0 {
			l.tr.add("Store.ReadWALChunk", 0, i, start, start.Add(d))
			l.shipUs = append(l.shipUs, us(d))
		}
		for _, p := range payloads {
			start := time.Now()
			if err := storage.ApplyRecord(l.repl, p); err != nil {
				return err
			}
			if record {
				end := time.Now()
				l.tr.add("storage.ApplyRecord", 0, i, start, end)
				l.applyUs = append(l.applyUs, us(end.Sub(start)))
			}
		}
		l.off += int64(len(chunk.Data))
		if chunk.NextSeq == 0 {
			return nil
		}
		l.seq, l.off = chunk.NextSeq, storage.WALHeaderSize
	}
}

// sendWrite sends a write to the child leader and tallies the insert it
// acknowledged, for the durability check.
func (l *ladder) sendWrite(o op) error {
	if !l.e.issue(o, time.Now(), l.rec) {
		return l.rec.firstErr
	}
	return nil
}

// prime applies the writes among ops — what the child saw before the
// traced run — to every rung's state, untimed.
func (l *ladder) prime(ops []op) error {
	for _, o := range ops {
		if o.class != classWrite {
			continue
		}
		if err := l.serve1(o); err != nil {
			return err
		}
		if err := ldbc.Apply(l.storeB.Graph(), o.mut); err != nil {
			return err
		}
		if err := ldbc.Apply(l.bare, o.mut); err != nil {
			return err
		}
	}
	return l.ship(-1)
}

// checkpoint keeps every rung's state in step with the child's.
func (l *ladder) checkpoint(i int, o op) error {
	if _, err := l.e.do(o, ""); err != nil {
		return err
	}
	if err := l.serve1(o); err != nil {
		return err
	}
	if err := l.storeB.Checkpoint(); err != nil {
		return err
	}
	return l.ship(i)
}

// climb runs the first n ops of s, whole units only, stopping early
// when budget is spent.
func (l *ladder) climb(s stream, n int, budget time.Duration) error {
	// The children were warmed; give this process's engines the same
	// cache state for the queries it is about to replay.
	for i := 0; i < n; i++ {
		if o := s.at(uint64(i)); o.class == classRead {
			if err := l.serve1(o); err != nil {
				return err
			}
			snap := l.run.Graph().Snapshot()
			args, err := bind(l.run, snap, o)
			if err != nil {
				return err
			}
			for _, eng := range []*core.Engine{l.run, l.traced} {
				if _, err := eng.RunOn(context.Background(), snap, o.query, args); err != nil {
					return err
				}
			}
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%s.unit == 0 && time.Since(start) > budget {
			break
		}
		o := s.at(uint64(i))
		var err error
		switch {
		case isQuery(o.class):
			err = l.query(i, o)
		case o.class == classWrite:
			err = l.write(i, o)
		default:
			err = l.checkpoint(i, o)
		}
		if err != nil {
			return fmt.Errorf("traced op %d (%s): %w", i, o.class, err)
		}
		l.ops++
	}
	return nil
}

// tracePath is where a workload's traced run leaves its spans.
func tracePath(workload string) string {
	return filepath.Join(buildDir, "trace-"+workload+".json")
}

func (l *ladder) writeTrace(workload string) error {
	b, err := json.Marshal(map[string]any{"workload": workload, "spans": l.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(tracePath(workload), b, 0o644)
}
