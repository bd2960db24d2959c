package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
)

const topKToysSrc = `
CREATE QUERY TopKToys (vertex<Customer> c, int k) FOR GRAPH SalesGraph {
  SumAccum<float> @lc, @inCommon, @rank;

  SELECT DISTINCT o INTO OthersWithCommonLikes
  FROM   Customer:c -(Likes>)- Product:t -(<Likes)- Customer:o
  WHERE  o <> c AND t.category == 'toy'
  ACCUM  o.@inCommon += 1
  POST_ACCUM o.@lc = log(1 + o.@inCommon);

  SELECT t.name, t.@rank AS rank INTO Recommended
  FROM   OthersWithCommonLikes:o -(Likes>)- Product:t
  WHERE  t.category == 'toy' AND c <> o
  ACCUM  t.@rank += o.@lc
  ORDER BY t.@rank DESC
  LIMIT k;

  RETURN Recommended;
}
`

const spinSrc = `
CREATE QUERY Spin (int n) FOR GRAPH SalesGraph {
  SumAccum<int> @@x;
  WHILE true LIMIT n DO
    @@x += 1;
  END;
  RETURN @@x;
}
`

func salesServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	g := graph.BuildSalesGraph(graph.SalesGraphConfig{
		Customers: 25, Products: 12, Sales: 200, Likes: 150, Seed: 42,
	})
	cfg.Engine = core.New(g, core.Options{Workers: 2})
	return New(cfg)
}

// do drives the handler in-process (no sockets, no client goroutines).
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	return doCtx(context.Background(), s, method, path, body)
}

func doCtx(ctx context.Context, s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

// TestServerE2E walks the full installed-query workflow over HTTP:
// install GSQL source, list the catalog, run with typed JSON
// parameters, and read the latency histogram back from /metrics.
func TestServerE2E(t *testing.T) {
	s := salesServer(t, Config{})

	// Install.
	w := do(s, "POST", "/queries", topKToysSrc)
	if w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	inst := decode[installResponse](t, w)
	if len(inst.Installed) != 1 || inst.Installed[0] != "TopKToys" {
		t.Fatalf("installed = %v", inst.Installed)
	}

	// List: typed signature comes back.
	w = do(s, "GET", "/queries", "")
	if w.Code != http.StatusOK {
		t.Fatalf("list: %d %s", w.Code, w.Body)
	}
	var list struct {
		Queries []queryInfo `json:"queries"`
	}
	list = decode[struct {
		Queries []queryInfo `json:"queries"`
	}](t, w)
	if len(list.Queries) != 1 || list.Queries[0].Name != "TopKToys" {
		t.Fatalf("catalog = %+v", list.Queries)
	}
	wantParams := []paramInfo{{Name: "c", Type: "vertex<Customer>"}, {Name: "k", Type: "int"}}
	for i, p := range list.Queries[0].Params {
		if p != wantParams[i] {
			t.Errorf("param[%d] = %+v, want %+v", i, p, wantParams[i])
		}
	}

	// Run with parameters.
	w = do(s, "POST", "/queries/TopKToys/run", `{"params":{"c":"c0","k":3}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("run: %d %s", w.Code, w.Body)
	}
	res := decode[runResponse](t, w)
	if res.Query != "TopKToys" || res.Returned == nil {
		t.Fatalf("run response = %+v", res)
	}
	if len(res.Returned.Rows) == 0 || len(res.Returned.Rows) > 3 {
		t.Errorf("returned %d rows, want 1..3", len(res.Returned.Rows))
	}
	if res.Stats.Selects != 2 || res.Stats.BindingRows <= 0 {
		t.Errorf("stats = %+v", res.Stats)
	}

	// Metrics: latency histogram and ok-counter for this query.
	w = do(s, "GET", "/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		`gsqld_query_runs_total{query="TopKToys",status="ok"} 1`,
		`gsqld_query_latency_seconds_bucket{query="TopKToys",le="+Inf"} 1`,
		`gsqld_query_latency_seconds_count{query="TopKToys"} 1`,
		`gsqld_query_binding_rows_count{query="TopKToys"} 1`,
		`gsqld_installed_queries 1`,
		`gsqld_inflight_queries 0`,
		"# TYPE gsqld_query_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Error taxonomy over HTTP.
	if w := do(s, "POST", "/queries/NoSuch/run", "{}"); w.Code != http.StatusNotFound {
		t.Errorf("unknown query: %d, want 404", w.Code)
	}
	if w := do(s, "POST", "/queries", "CREATE QUERY {"); w.Code != http.StatusBadRequest {
		t.Errorf("parse error: %d, want 400", w.Code)
	}
	if w := do(s, "POST", "/queries", topKToysSrc); w.Code != http.StatusConflict {
		t.Errorf("duplicate install: %d, want 409", w.Code)
	}
	if w := do(s, "POST", "/queries/TopKToys/run", `{"params":{"c":"zzz","k":1}}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad vertex key: %d, want 400", w.Code)
	}
	if w := do(s, "POST", "/queries/TopKToys/run", `{"params":{"k":"x"}}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad int: %d, want 400", w.Code)
	}
}

// TestServerInstallJSONBody: the JSON {"source": ...} install form.
func TestServerInstallJSONBody(t *testing.T) {
	s := salesServer(t, Config{})
	body, _ := json.Marshal(installRequest{Source: spinSrc})
	req := httptest.NewRequest("POST", "/queries", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	if inst := decode[installResponse](t, w); len(inst.Installed) != 1 || inst.Installed[0] != "Spin" {
		t.Fatalf("installed = %v", inst.Installed)
	}
}

// TestServerDeadlineCancelsRun: a 1ms-deadline request against a large
// random graph comes back as a typed cancellation (408) — and the
// aborted run leaks no goroutines.
func TestServerDeadlineCancelsRun(t *testing.T) {
	g := graph.BuildRandomMixedGraph(4000, 32000, 5)
	eng := core.New(g, core.Options{Workers: 4})
	s := New(Config{Engine: eng})
	w := do(s, "POST", "/queries", `CREATE QUERY Sweep() {
  SumAccum<int> @@n;
  S = SELECT t FROM V:s -((D1>|D2>|U)*)- V:t ACCUM @@n += 1;
  RETURN @@n;
}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}

	before := runtime.NumGoroutine()
	w = do(s, "POST", "/queries/Sweep/run", `{"timeout_ms":1}`)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("run: %d %s, want 408", w.Code, w.Body)
	}
	if er := decode[errorResponse](t, w); er.Code != "cancelled" {
		t.Errorf("code = %q, want cancelled", er.Code)
	}
	// The cancelled run's workers must wind down; allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d now=%d — leak after cancellation",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if w := do(s, "GET", "/metrics", ""); !strings.Contains(w.Body.String(),
		`gsqld_query_runs_total{query="Sweep",status="cancelled"} 1`) {
		t.Error("/metrics missing cancelled counter")
	}
}

// startBlockedRun launches Spin(huge n) in the background and waits
// until it is executing (inflight gauge = 1). Returns a cancel that
// aborts it and a channel with its final status code.
func startBlockedRun(t *testing.T, s *Server) (cancel context.CancelFunc, done <-chan int) {
	t.Helper()
	ctx, cf := context.WithCancel(context.Background())
	ch := make(chan int, 1)
	go func() {
		w := doCtx(ctx, s, "POST", "/queries/Spin/run",
			`{"params":{"n":2000000000},"timeout_ms":60000}`)
		ch <- w.Code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.mInflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocked run never started")
		}
		time.Sleep(time.Millisecond)
	}
	return cf, ch
}

// TestServerOverload: MaxConcurrent=1 with no queue sheds the second
// concurrent run with a typed 429 and counts the rejection.
func TestServerOverload(t *testing.T) {
	s := salesServer(t, Config{MaxConcurrent: 1, MaxQueue: -1, QueueWait: 10 * time.Millisecond})
	if w := do(s, "POST", "/queries", spinSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	cancel, done := startBlockedRun(t, s)
	defer cancel()

	w := do(s, "POST", "/queries/Spin/run", `{"params":{"n":1}}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second run: %d %s, want 429", w.Code, w.Body)
	}
	if er := decode[errorResponse](t, w); er.Code != "overload" {
		t.Errorf("code = %q, want overload", er.Code)
	}
	if !strings.Contains(do(s, "GET", "/metrics", "").Body.String(),
		`gsqld_rejected_total{reason="overload"} 1`) {
		t.Error("/metrics missing overload rejection")
	}

	cancel()
	if code := <-done; code != http.StatusRequestTimeout {
		t.Errorf("blocked run finished %d, want 408 after cancel", code)
	}
	// Slot is free again: the same request now runs.
	if w := do(s, "POST", "/queries/Spin/run", `{"params":{"n":1}}`); w.Code != http.StatusOK {
		t.Errorf("after release: %d %s, want 200", w.Code, w.Body)
	}
}

// TestServerShutdownDrains: Shutdown lets the in-flight run finish
// (200) while refusing new work with 503, then returns.
func TestServerShutdownDrains(t *testing.T) {
	s := salesServer(t, Config{MaxConcurrent: 2})
	if w := do(s, "POST", "/queries", spinSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	cancel, done := startBlockedRun(t, s)
	defer cancel()

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cf := context.WithTimeout(context.Background(), 10*time.Second)
		defer cf()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Draining flag flips before the drain wait; poll until visible.
	deadline := time.Now().Add(5 * time.Second)
	for do(s, "GET", "/healthz", "").Code != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if w := do(s, "POST", "/queries/Spin/run", `{"params":{"n":1}}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("run while draining: %d, want 503", w.Code)
	}
	if w := do(s, "POST", "/queries", "CREATE QUERY Другая() { RETURN 1; }"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("install while draining: %d, want 503", w.Code)
	}

	// Let the in-flight run finish; the drain must then complete.
	cancel()
	if code := <-done; code != http.StatusRequestTimeout {
		t.Errorf("in-flight run finished %d", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerShutdownTimeout: a drain that cannot finish in time
// reports the deadline instead of hanging.
func TestServerShutdownTimeout(t *testing.T) {
	s := salesServer(t, Config{})
	if w := do(s, "POST", "/queries", spinSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	cancel, done := startBlockedRun(t, s)
	defer cancel()

	ctx, cf := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cf()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("shutdown returned nil with a run still in flight")
	}
	cancel()
	<-done
}

// TestConcurrentRunsThroughServer drives many simultaneous runs end to
// end — under -race this exercises handler, admission, metrics and
// engine together.
func TestConcurrentRunsThroughServer(t *testing.T) {
	s := salesServer(t, Config{MaxConcurrent: 4})
	if w := do(s, "POST", "/queries", topKToysSrc); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	const n = 16
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			body := fmt.Sprintf(`{"params":{"c":"c%d","k":3}}`, i%25)
			codes <- do(s, "POST", "/queries/TopKToys/run", body).Code
		}(i)
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("run %d: code %d", i, code)
		}
	}
	if got := s.mRuns.With("TopKToys", "ok").Value(); got != n {
		t.Errorf("ok runs = %d, want %d", got, n)
	}
}

// TestServerExpandMetrics: the counted-hop pipeline counters are
// exported through /metrics and advance across runs — a cold run
// records misses plus SDMC work, a warm re-run records hits and zero
// new SDMC runs — and the per-run stats surface in the JSON response.
func TestServerExpandMetrics(t *testing.T) {
	s := salesServer(t, Config{})
	const src = `CREATE QUERY Wander () FOR GRAPH SalesGraph {
  SumAccum<int> @n;
  SELECT DISTINCT t INTO R FROM Customer:s -((Likes>|<Likes)*1..2)- Customer:t ACCUM t.@n += 1;
  RETURN R;
}`
	if w := do(s, "POST", "/queries", src); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
	w := do(s, "POST", "/queries/Wander/run", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("cold run: %d %s", w.Code, w.Body)
	}
	cold := decode[runResponse](t, w)
	if cold.Stats.CountCacheMisses == 0 || cold.Stats.SDMCRuns == 0 {
		t.Fatalf("cold run stats = %+v, want cache misses and SDMC runs", cold.Stats)
	}
	w = do(s, "POST", "/queries/Wander/run", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("warm run: %d %s", w.Code, w.Body)
	}
	warm := decode[runResponse](t, w)
	if warm.Stats.SDMCRuns != 0 || warm.Stats.CountCacheHits == 0 {
		t.Fatalf("warm run stats = %+v, want cache hits and zero SDMC runs", warm.Stats)
	}

	body := do(s, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		fmt.Sprintf("gsqld_expand_count_cache_hits_total %d", warm.Stats.CountCacheHits),
		fmt.Sprintf("gsqld_expand_count_cache_misses_total %d", cold.Stats.CountCacheMisses),
		fmt.Sprintf("gsqld_expand_sdmc_runs_total %d", cold.Stats.SDMCRuns+warm.Stats.SDMCRuns),
		"gsqld_expand_shards_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerAccumCompileMetrics: the compiled-kernel, fusion and
// unboxed-miss counters surface in both the per-run stats JSON and
// /metrics — a fusable query reports compiled statements plus fused
// blocks, a clause reading a vertex set's size() compiles too (the
// interpreted-statement counter stays 0), and typed reads of a
// MaxAccum<float> holding ints report their boxed re-runs.
func TestServerAccumCompileMetrics(t *testing.T) {
	s := salesServer(t, Config{})
	const fusedSrc = `CREATE QUERY Fused () FOR GRAPH SalesGraph {
  SumAccum<int> @@a;
  SumAccum<int> @@b;
  X = SELECT t FROM Customer:s -(Likes>)- Product:t ACCUM @@a += 1;
  Y = SELECT t FROM Customer:s -(Likes>)- Product:t ACCUM @@b += 1;
}`
	const interpSrc = `CREATE QUERY Interp () FOR GRAPH SalesGraph {
  SumAccum<int> @@a;
  X = SELECT s FROM Customer:s;
  Y = SELECT t FROM Customer:s -(Likes>)- Product:t ACCUM @@a += X.size();
}`
	const missSrc = `CREATE QUERY Miss () FOR GRAPH SalesGraph {
  MaxAccum<float> @m;
  MaxAccum<float> @@g;
  X = SELECT t FROM Customer:s -(Likes>)- Product:t ACCUM t.@m += 1;
  Y = SELECT t FROM Customer:s -(Likes>)- Product:t ACCUM @@g += t.@m;
}`
	for _, src := range []string{fusedSrc, interpSrc, missSrc} {
		if w := do(s, "POST", "/queries", src); w.Code != http.StatusCreated {
			t.Fatalf("install: %d %s", w.Code, w.Body)
		}
	}
	w := do(s, "POST", "/queries/Fused/run", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("fused run: %d %s", w.Code, w.Body)
	}
	fused := decode[runResponse](t, w)
	if fused.Stats.AccumCompiledStmts != 2 || fused.Stats.FusionBlocksFused != 2 ||
		fused.Stats.AccumInterpretedStmts != 0 {
		t.Fatalf("fused run stats = %+v, want 2 compiled stmts, 2 fused blocks", fused.Stats)
	}
	w = do(s, "POST", "/queries/Interp/run", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("interp run: %d %s", w.Code, w.Body)
	}
	interp := decode[runResponse](t, w)
	// X and Y expand different patterns, and Y reads the X the block
	// before it defines: nothing fuses.
	if interp.Stats.AccumCompiledStmts != 1 || interp.Stats.AccumInterpretedStmts != 0 ||
		interp.Stats.FusionBlocksFused != 0 {
		t.Fatalf("interp run stats = %+v, want 1 compiled stmt, 0 interpreted, 0 fused", interp.Stats)
	}
	w = do(s, "POST", "/queries/Miss/run", "{}")
	if w.Code != http.StatusOK {
		t.Fatalf("miss run: %d %s", w.Code, w.Body)
	}
	miss := decode[runResponse](t, w)
	if miss.Stats.AccumUnboxedMisses == 0 || fused.Stats.AccumUnboxedMisses != 0 || interp.Stats.AccumUnboxedMisses != 0 {
		t.Fatalf("unboxed misses: fused %d, interp %d, miss %d; want 0, 0, > 0",
			fused.Stats.AccumUnboxedMisses, interp.Stats.AccumUnboxedMisses, miss.Stats.AccumUnboxedMisses)
	}

	body := do(s, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		fmt.Sprintf("gsqld_accum_compiled_stmts_total %d", fused.Stats.AccumCompiledStmts+interp.Stats.AccumCompiledStmts+miss.Stats.AccumCompiledStmts),
		fmt.Sprintf("gsqld_accum_unboxed_misses_total %d", miss.Stats.AccumUnboxedMisses),
		"gsqld_accum_interpreted_stmts_total 0",
		fmt.Sprintf("gsqld_fusion_blocks_fused_total %d", fused.Stats.FusionBlocksFused),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestResourceLimitIs422: a run refused by an engine resource limit,
// wrapped the way a counted hop wraps the SDMC kernel's product-size
// error, answers 422 with the resource_limit code.
func TestResourceLimitIs422(t *testing.T) {
	err := fmt.Errorf("pattern -(E>*)-: %w: %w", core.ErrResourceLimit, match.ErrProductTooLarge)
	w := httptest.NewRecorder()
	writeError(w, fmt.Errorf("run Q: %w", err))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", w.Code)
	}
	body := decode[errorResponse](t, w)
	if body.Code != "resource_limit" || !strings.Contains(body.Error, "E>*") {
		t.Errorf("body = %+v, want code resource_limit naming the pattern", body)
	}
}
