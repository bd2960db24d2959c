package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gsqlgo/internal/trace"
)

// wanderSrc exercises every engine phase tracing instruments: a
// counted hop (DFA compile, SDMC kernel runs, count cache) plus ACCUM.
const wanderSrc = `CREATE QUERY Wander () FOR GRAPH SalesGraph {
  SumAccum<int> @n;
  SELECT DISTINCT t INTO R FROM Customer:s -((Likes>|<Likes)*1..2)- Customer:t ACCUM t.@n += 1;
  RETURN R;
}`

// basketSrc chains a single hop without an edge alias (parallel Bought
// edges repeat its rows) into a counted hop.
const basketSrc = `CREATE QUERY Basket () FOR GRAPH SalesGraph {
  SumAccum<int> @n;
  SELECT DISTINCT t INTO R FROM Customer:c -(Bought>)- Product:p -((<Bought|Bought>)*1..2)- Product:t ACCUM t.@n += 1;
  RETURN R;
}`

// tracedRunResponse mirrors runResponse but decodes the trace into its
// wire form (a *trace.Span only marshals).
type tracedRunResponse struct {
	Query     string          `json:"query"`
	RequestID string          `json:"request_id"`
	Trace     *trace.SpanJSON `json:"trace"`
}

// findSpan walks a decoded span tree depth-first for the first span
// with the given name.
func findSpan(j *trace.SpanJSON, name string) *trace.SpanJSON {
	if j == nil {
		return nil
	}
	if j.Name == name {
		return j
	}
	for _, c := range j.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

func countSpans(j *trace.SpanJSON, name string) int {
	if j == nil {
		return 0
	}
	n := 0
	if j.Name == name {
		n++
	}
	for _, c := range j.Children {
		n += countSpans(c, name)
	}
	return n
}

// TestTracedRunSpans is the tentpole's coverage acceptance: a ?trace=1
// run of a counted-hop query must emit spans for parse, bind, the
// select, the hop (with cache and shard attributes), the DFA
// compile/cache lookup, the SDMC kernel invocations, and the ACCUM
// phase — and the inline trace must carry the request id.
func TestTracedRunSpans(t *testing.T) {
	s := salesServer(t, Config{})
	if w := do(s, "POST", "/queries", wanderSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	w := do(s, "POST", "/queries/Wander/run?trace=1", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("run: %d %s", w.Code, w.Body)
	}
	res := decode[tracedRunResponse](t, w)
	if res.Trace == nil {
		t.Fatal("?trace=1 run returned no trace")
	}
	if res.Trace.Name != "query" {
		t.Fatalf("root span %q, want query", res.Trace.Name)
	}
	if rid, ok := res.Trace.Attrs["request_id"].(string); !ok || rid != res.RequestID {
		t.Errorf("trace request_id = %v, response request_id = %q", res.Trace.Attrs["request_id"], res.RequestID)
	}
	for _, name := range []string{"parse", "bind", "select", "hop", "dfa", "sdmc", "accum", "output"} {
		if findSpan(res.Trace, name) == nil {
			t.Errorf("trace missing %q span", name)
		}
	}
	hop := findSpan(res.Trace, "hop")
	if kind, _ := hop.Attrs["kind"].(string); kind != "counted" {
		t.Errorf("hop kind = %v, want counted", hop.Attrs["kind"])
	}
	for _, attr := range []string{"shards", "cache_hits", "cache_misses", "sdmc_runs", "rows_in", "rows_out"} {
		if _, ok := hop.Attrs[attr]; !ok {
			t.Errorf("hop span missing %q attr (have %v)", attr, hop.Attrs)
		}
	}
	// The counted hop starts from a vertex type, so its rows are
	// distinct and compress() has nothing to merge.
	if c, _ := hop.Attrs["compress"].(string); c != "skipped" {
		t.Errorf("hop compress = %v, want skipped", hop.Attrs["compress"])
	}
	if dfa := findSpan(res.Trace, "dfa"); dfa.Attrs["cached"] != false {
		t.Errorf("cold dfa span cached = %v, want false", dfa.Attrs["cached"])
	}
	if n := countSpans(res.Trace, "sdmc"); n < 1 {
		t.Errorf("no sdmc kernel spans recorded")
	}

	// Warm run: the count cache serves every source, so the hop reports
	// hits and the DFA lookup reports cached=true.
	w = do(s, "POST", "/queries/Wander/run?trace=1", "{}")
	warm := decode[tracedRunResponse](t, w)
	if dfa := findSpan(warm.Trace, "dfa"); dfa.Attrs["cached"] != true {
		t.Errorf("warm dfa span cached = %v, want true", dfa.Attrs["cached"])
	}
	hop = findSpan(warm.Trace, "hop")
	if hits, _ := hop.Attrs["cache_hits"].(float64); hits == 0 {
		t.Errorf("warm hop cache_hits = %v, want > 0", hop.Attrs["cache_hits"])
	}

	// A single hop without an edge alias can repeat a row over parallel
	// edges, so the counted hop after it must compress.
	if w := do(s, "POST", "/queries", basketSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	basket := decode[tracedRunResponse](t, do(s, "POST", "/queries/Basket/run?trace=1", "{}"))
	var hops []*trace.SpanJSON
	var collect func(j *trace.SpanJSON)
	collect = func(j *trace.SpanJSON) {
		if j.Name == "hop" {
			hops = append(hops, j)
		}
		for _, c := range j.Children {
			collect(c)
		}
	}
	collect(basket.Trace)
	if len(hops) != 2 {
		t.Fatalf("Basket trace has %d hop spans, want 2", len(hops))
	}
	for i, want := range []string{"skipped", "ran"} {
		if c, _ := hops[i].Attrs["compress"].(string); c != want {
			t.Errorf("Basket hop %d (%v) compress = %v, want %s", i, hops[i].Attrs["kind"], hops[i].Attrs["compress"], want)
		}
	}

	// An untraced run must not carry a trace.
	plain := decode[tracedRunResponse](t, do(s, "POST", "/queries/Wander/run", "{}"))
	if plain.Trace != nil {
		t.Error("untraced run returned a trace")
	}
}

// TestDebugTracesRing: traced runs land in GET /debug/traces newest
// first, bounded by TraceRingSize; untraced runs do not.
func TestDebugTracesRing(t *testing.T) {
	s := salesServer(t, Config{TraceRingSize: 2})
	if w := do(s, "POST", "/queries", wanderSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	do(s, "POST", "/queries/Wander/run", "{}") // untraced: not retained
	for i := 0; i < 3; i++ {
		if w := do(s, "POST", "/queries/Wander/run?trace=1", "{}"); w.Code != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := do(s, "GET", "/debug/traces", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", w.Code)
	}
	out := decode[struct {
		Total  uint64            `json:"total"`
		Traces []*trace.SpanJSON `json:"traces"`
	}](t, w)
	if out.Total != 3 {
		t.Errorf("total = %d, want 3 (untraced runs must not count)", out.Total)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("ring retained %d traces, want 2", len(out.Traces))
	}
	for _, tr := range out.Traces {
		if tr.Name != "query" || findSpan(tr, "select") == nil {
			t.Errorf("ring trace malformed: root %q", tr.Name)
		}
	}
}

// TestSlowQueryLogExactness is the slow-query acceptance: with the
// threshold armed low every run is logged; with it armed high none
// are — and the log record carries the query name, request id, params
// hash and per-stage timings.
func TestSlowQueryLogExactness(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := salesServer(t, Config{SlowQueryThreshold: time.Nanosecond, Logger: logger})
	if w := do(s, "POST", "/queries", wanderSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if w := do(s, "POST", "/queries/Wander/run", "{}"); w.Code != http.StatusOK {
			t.Fatalf("run: %d %s", w.Code, w.Body)
		}
	}
	logs := buf.String()
	if got := strings.Count(logs, "slow query"); got != runs {
		t.Fatalf("slow-query records = %d, want %d\n%s", got, runs, logs)
	}
	for _, want := range []string{"query=Wander", "request_id=", "params_hash=", "elapsed_ms=", "stages="} {
		if !strings.Contains(logs, want) {
			t.Errorf("slow-query record missing %q:\n%s", want, logs)
		}
	}
	// Per-stage timings name the phases the trace recorded.
	if !strings.Contains(logs, "select=") || !strings.Contains(logs, "hop=") {
		t.Errorf("stage summary missing engine phases:\n%s", logs)
	}
	if body := do(s, "GET", "/metrics", "").Body.String(); !strings.Contains(body, "gsqld_slow_queries_total 3") {
		t.Errorf("gsqld_slow_queries_total != 3 in:\n%s", body)
	}
	// Slow runs are retained in the ring even though no client asked
	// for a trace.
	if out := decode[struct {
		Total uint64 `json:"total"`
	}](t, do(s, "GET", "/debug/traces", "")); out.Total != runs {
		t.Errorf("ring total = %d, want %d (slow runs retained)", out.Total, runs)
	}

	// High threshold: same traffic, zero records.
	var quiet bytes.Buffer
	s2 := salesServer(t, Config{SlowQueryThreshold: time.Hour, Logger: slog.New(slog.NewTextHandler(&quiet, nil))})
	if w := do(s2, "POST", "/queries", wanderSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	for i := 0; i < runs; i++ {
		do(s2, "POST", "/queries/Wander/run", "{}")
	}
	if strings.Contains(quiet.String(), "slow query") {
		t.Errorf("sub-threshold runs were logged:\n%s", quiet.String())
	}
	if body := do(s2, "GET", "/metrics", "").Body.String(); !strings.Contains(body, "gsqld_slow_queries_total 0") {
		t.Errorf("gsqld_slow_queries_total != 0 in quiet server")
	}
}

// TestRequestIDPropagation: the server mints an id (echoed on the
// response header and body), and honors a caller-supplied one.
func TestRequestIDPropagation(t *testing.T) {
	s := salesServer(t, Config{})
	if w := do(s, "POST", "/queries", wanderSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	w := do(s, "POST", "/queries/Wander/run", "{}")
	hdr := w.Header().Get("X-Request-Id")
	if hdr == "" {
		t.Fatal("no X-Request-Id on response")
	}
	if res := decode[tracedRunResponse](t, w); res.RequestID != hdr {
		t.Errorf("body request_id %q != header %q", res.RequestID, hdr)
	}
	w2 := do(s, "POST", "/queries/Wander/run", "{}")
	if w2.Header().Get("X-Request-Id") == hdr {
		t.Error("two requests shared one minted id")
	}

	req := httptest.NewRequest("POST", "/queries/Wander/run?trace=1", strings.NewReader("{}"))
	req.Header.Set("X-Request-Id", "caller-7")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-Id") != "caller-7" {
		t.Errorf("caller-supplied id not echoed: %q", rec.Header().Get("X-Request-Id"))
	}
	if res := decode[tracedRunResponse](t, rec); res.RequestID != "caller-7" ||
		res.Trace.Attrs["request_id"] != "caller-7" {
		t.Errorf("caller id not propagated: body %q trace %v", res.RequestID, res.Trace.Attrs["request_id"])
	}
}

// TestBuildInfoMetric: /metrics exposes gsqld_build_info with the
// go_version label, and /healthz reports the same identity.
func TestBuildInfoMetric(t *testing.T) {
	s := salesServer(t, Config{})
	body := do(s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(body, "gsqld_build_info{") || !strings.Contains(body, `go_version="go1.`) {
		t.Errorf("/metrics missing build info:\n%s", body)
	}
	w := do(s, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", w.Code)
	}
	h := decode[map[string]string](t, w)
	if h["status"] != "ok" || h["version"] == "" || h["commit"] == "" {
		t.Errorf("healthz = %v", h)
	}
}

// TestRuntimeMetrics: /metrics exports the Go runtime's GC series, and
// across two scrapes with a forced GC between them the three counters
// never go backwards and the cycle count advances.
func TestRuntimeMetrics(t *testing.T) {
	s := salesServer(t, Config{})
	names := []string{
		"gsqld_runtime_gc_cycles_total",
		"gsqld_runtime_gc_cpu_seconds_total",
		"gsqld_runtime_heap_alloc_bytes_total",
		"gsqld_runtime_heap_live_bytes",
	}
	scrape := func() []float64 {
		out := make([]float64, len(names))
		for i, name := range names {
			v, ok := metricValue(s, name)
			if !ok {
				t.Fatalf("/metrics has no %s", name)
			}
			out[i] = v
		}
		return out
	}
	first := scrape()
	runtime.GC()
	second := scrape()
	for i, name := range names[:3] {
		if second[i] < first[i] {
			t.Errorf("%s went backwards: %v then %v", name, first[i], second[i])
		}
	}
	if second[0] <= first[0] {
		t.Errorf("gsqld_runtime_gc_cycles_total did not advance across runtime.GC(): %v then %v", first[0], second[0])
	}
	if second[3] <= 0 {
		t.Errorf("gsqld_runtime_heap_live_bytes = %v, want > 0", second[3])
	}

	// Concurrent scrapes each fold the runtime's counters in; none may
	// add a difference another already added.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				do(s, "GET", "/metrics", "")
			}
		}()
	}
	wg.Wait()
	got, _ := metricValue(s, "gsqld_runtime_gc_cycles_total")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if got > float64(ms.NumGC) {
		t.Errorf("gsqld_runtime_gc_cycles_total = %v after concurrent scrapes, runtime counts %d cycles", got, ms.NumGC)
	}
}

// TestMutationTrace: a ?trace=1 mutation returns through the ring with
// the op attr and the WAL/apply child span.
func TestMutationTrace(t *testing.T) {
	srv, _, ts := newStorageServer(t, t.TempDir())
	resp, body := postJSON(t, ts.URL+"/graph/vertices?trace=1",
		addVertexRequest{Type: "Person", Key: "ada"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add vertex: %d %s", resp.StatusCode, body)
	}
	w := do(srv, "GET", "/debug/traces", "")
	out := decode[struct {
		Traces []*trace.SpanJSON `json:"traces"`
	}](t, w)
	if len(out.Traces) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(out.Traces))
	}
	mut := out.Traces[0]
	if mut.Name != "mutation" || mut.Attrs["op"] != "add_vertex" || mut.Attrs["durable"] != true {
		t.Fatalf("mutation trace = %v %v", mut.Name, mut.Attrs)
	}
	wal := findSpan(mut, "wal_append")
	if wal == nil {
		t.Fatal("mutation trace has no wal_append span")
	}
	if b, _ := wal.Attrs["bytes"].(float64); b <= 0 {
		t.Errorf("wal_append bytes = %v, want > 0", wal.Attrs["bytes"])
	}

	// Checkpoint trace.
	resp, body = postJSON(t, ts.URL+"/admin/checkpoint?trace=1", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}
	out = decode[struct {
		Traces []*trace.SpanJSON `json:"traces"`
	}](t, do(srv, "GET", "/debug/traces", ""))
	cp := out.Traces[0]
	if cp.Name != "checkpoint" || findSpan(cp, "snapshot_write") == nil {
		t.Fatalf("checkpoint trace malformed: %v", cp.Name)
	}
	if v, _ := cp.Attrs["checkpoints"].(float64); v < 1 {
		t.Errorf("checkpoint trace attrs = %v", cp.Attrs)
	}
}
