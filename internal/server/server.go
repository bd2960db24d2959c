// Package server is gsqld's serving layer: an HTTP JSON facade over
// core.Engine that mirrors the paper's installed-query model. Queries
// are installed once (POST /queries, GSQL source in the body) and then
// invoked by name with JSON parameters (POST /queries/{name}/run) —
// the same two-phase workflow TigerGraph exposes through CREATE/
// INSTALL QUERY plus its generated REST endpoints.
//
// The layer adds what a long-running service needs and the library
// deliberately omits: per-request deadlines that propagate as
// cooperative cancellation into the ACCUM shard loops and SDMC BFS
// kernels, an admission controller that sheds load with typed 429s
// instead of stacking goroutines, graceful shutdown that drains
// in-flight runs, and a metrics registry exported in Prometheus text
// format (GET /metrics) and expvar JSON (GET /debug/vars).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/metrics"
	"gsqlgo/internal/replication"
	"gsqlgo/internal/storage"
	"gsqlgo/internal/trace"
)

// Config tunes a Server. The zero value of every field except Engine
// picks a sensible default.
type Config struct {
	// Engine executes the queries. Required.
	Engine *core.Engine

	// Store, when set, is the durable store backing the engine's graph:
	// mutation routes persist through its WAL, POST /admin/checkpoint
	// rotates it, Shutdown checkpoints it after the drain, and the
	// gsqld_storage_* metrics reflect its counters. Nil serves the
	// graph purely in memory (mutation routes still work, unlogged).
	// A server with a Store and no Follower also serves the
	// /replication/* routes, so any durable gsqld can act as a
	// replication leader.
	Store *storage.Store

	// Follower, when set, puts the server in read replica mode: the
	// engine's graph is the follower's, mutation and checkpoint routes
	// answer 403 (replication.ErrReadOnly), Shutdown skips the drain
	// checkpoint (a follower's generations must keep mirroring the
	// leader's), and the gsqld_replication_* metrics reflect the
	// follower's counters and lag gauges. Leave Store nil; storage
	// metrics come from the follower's own store. The caller binds the
	// follower to the server (Follower.Bind with ReplicationLock and
	// AddTrace) and runs its tail loop.
	Follower *replication.Follower

	// DefaultTimeout caps a run when the request does not ask for a
	// deadline (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps what a request may ask for via timeout_ms
	// (default 5m).
	MaxTimeout time.Duration

	// MaxConcurrent bounds simultaneously executing runs (default:
	// the engine's worker budget).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a run slot; further
	// arrivals get 429 immediately (default 4×MaxConcurrent;
	// negative disables queueing entirely).
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a run
	// slot before 429 (default 1s).
	QueueWait time.Duration

	// Logger receives the server's structured log records (default
	// slog.Default()). Every record about a request carries its
	// request_id.
	Logger *slog.Logger
	// SlowQueryThreshold, when positive, turns on the slow-query log:
	// every run is traced, and runs whose end-to-end latency meets or
	// exceeds the threshold emit a structured warn record (query name,
	// params hash, per-stage timings) and land in the trace ring.
	// Zero disables it.
	SlowQueryThreshold time.Duration
	// TraceRingSize bounds the in-memory ring of recent traces served
	// at GET /debug/traces (default 64).
	TraceRingSize int

	// MetricsHistory, when positive, turns on the metrics history
	// sampler: every counter, gauge and histogram is snapshotted into a
	// bounded in-memory ring at this interval, served with computed
	// rates at GET /debug/metrics/history. Zero (the default) disables
	// the sampler entirely — no goroutine, no allocation, no overhead.
	MetricsHistory time.Duration
	// MetricsHistorySize bounds retained samples (default 600 — ten
	// minutes at a one-second interval).
	MetricsHistorySize int

	// AdvertiseURL is this node's own base URL as peers should reach it
	// — the node's identity in GET /cluster/status. A follower should
	// also set replication.FollowerConfig.AdvertiseURL to the same
	// value so the leader learns it from replication traffic.
	AdvertiseURL string
	// Peers lists other nodes' base URLs for the /cluster/status
	// fan-out, joined with peers learned from replication traffic.
	Peers []string
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = c.Engine.Workers()
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 64
	}
	return c
}

// Server is the HTTP query service.
type Server struct {
	cfg  Config
	eng  *core.Engine
	adm  *admission
	mux  *http.ServeMux
	root http.Handler // mux wrapped in the request-id middleware
	reg  *metrics.Registry
	log  *slog.Logger
	ring *trace.Ring

	// leader is set when this node serves the /replication/* routes —
	// its learned-peer map feeds the /cluster/status fan-out.
	leader *replication.Leader
	// hist is the metrics history sampler (nil unless
	// Config.MetricsHistory is positive).
	hist    *metrics.History
	started time.Time

	ridPrefix  string
	ridCounter atomic.Uint64

	buildVersion string
	buildCommit  string

	draining atomic.Bool
	inflight sync.WaitGroup

	// wmu serializes graph mutation against graph mutation: the mutation
	// routes, checkpoints, and a bound follower's apply loop hold it
	// exclusively. Readers never take it — a run pins an immutable MVCC
	// snapshot (graph.Snapshot) at admission and executes lock-free, so
	// writers never block the query path. The graph's own methods supply
	// the reader-side safety (epoch-stamped views over append-only
	// columns); this mutex supplies only the single-writer discipline
	// those methods still demand.
	wmu sync.Mutex

	storageMu   sync.Mutex    // guards lastStorage delta-sync
	lastStorage storage.Stats // counters already folded into the registry

	mvccMu    sync.Mutex // guards lastFolds delta-sync
	lastFolds uint64     // fold count already folded into the registry

	replMu   sync.Mutex                // guards lastRepl delta-sync
	lastRepl replication.FollowerStats // counters already folded into the registry

	mRuns      *metrics.CounterVec   // gsqld_query_runs_total{query,status}
	mLatency   *metrics.HistogramVec // gsqld_query_latency_seconds{query}
	mRows      *metrics.HistogramVec // gsqld_query_binding_rows{query}
	mInflight  *metrics.Gauge        // gsqld_inflight_queries
	mRejected  *metrics.CounterVec   // gsqld_rejected_total{reason}
	mInstalled *metrics.Gauge        // gsqld_installed_queries

	mCacheHits   *metrics.Counter // gsqld_expand_count_cache_hits_total
	mCacheMisses *metrics.Counter // gsqld_expand_count_cache_misses_total
	mSDMCRuns    *metrics.Counter // gsqld_expand_sdmc_runs_total
	mShards      *metrics.Counter // gsqld_expand_shards_total

	mAccumCompiled    *metrics.Counter // gsqld_accum_compiled_stmts_total
	mAccumInterpreted *metrics.Counter // gsqld_accum_interpreted_stmts_total, always 0
	mAccumMisses      *metrics.Counter // gsqld_accum_unboxed_misses_total
	mFusedBlocks      *metrics.Counter // gsqld_fusion_blocks_fused_total

	mWALRecords  *metrics.Counter // gsqld_storage_wal_records_total
	mWALBytes    *metrics.Counter // gsqld_storage_wal_bytes_total
	mCheckpoints *metrics.Counter // gsqld_storage_checkpoints_total
	mRecoveries  *metrics.Counter // gsqld_storage_recoveries_total

	mTracedRuns  *metrics.Counter // gsqld_traced_runs_total
	mSlowQueries *metrics.Counter // gsqld_slow_queries_total

	mMVCCPinned *metrics.Gauge   // gsqld_mvcc_snapshots_pinned
	mMVCCDelta  *metrics.Gauge   // gsqld_mvcc_delta_records
	mMVCCFolds  *metrics.Counter // gsqld_mvcc_folds_total

	runtimeMu  sync.Mutex            // serializes syncRuntimeMetrics' read-then-add
	mGCCycles  *metrics.Counter      // gsqld_runtime_gc_cycles_total
	mGCCPU     *metrics.FloatCounter // gsqld_runtime_gc_cpu_seconds_total
	mHeapAlloc *metrics.Counter      // gsqld_runtime_heap_alloc_bytes_total
	mHeapLive  *metrics.Gauge        // gsqld_runtime_heap_live_bytes

	// Follower-mode metrics (registered only when cfg.Follower is set).
	mReplApplied    *metrics.Counter // gsqld_replication_records_applied_total
	mReplBytes      *metrics.Counter // gsqld_replication_bytes_total
	mReplBootstraps *metrics.Counter // gsqld_replication_bootstraps_total
	mReplReconnects *metrics.Counter // gsqld_replication_reconnects_total
	mReplLagRecords *metrics.Gauge   // gsqld_replication_lag_records
	mReplLagBytes   *metrics.Gauge   // gsqld_replication_lag_bytes
}

// New builds a Server over cfg.Engine. It panics if Engine is nil.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		eng:       cfg.Engine,
		adm:       newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait),
		reg:       metrics.NewRegistry(),
		log:       cfg.Logger,
		ring:      trace.NewRing(cfg.TraceRingSize),
		ridPrefix: randPrefix(),
		started:   time.Now(),
	}
	s.mRuns = s.reg.CounterVec("gsqld_query_runs_total",
		"Completed query runs by query name and outcome.", "query", "status")
	s.mLatency = s.reg.HistogramVec("gsqld_query_latency_seconds",
		"End-to-end run latency per query.", metrics.DefLatencyBuckets, "query")
	s.mRows = s.reg.HistogramVec("gsqld_query_binding_rows",
		"Compressed binding-table rows produced per run.", metrics.DefSizeBuckets, "query")
	s.mInflight = s.reg.Gauge("gsqld_inflight_queries",
		"Runs currently executing or queued for a slot.")
	s.mRejected = s.reg.CounterVec("gsqld_rejected_total",
		"Requests rejected before execution, by reason.", "reason")
	s.mInstalled = s.reg.Gauge("gsqld_installed_queries",
		"Queries currently installed in the catalog.")
	s.mInstalled.Set(int64(len(s.eng.Queries())))
	s.mCacheHits = s.reg.Counter("gsqld_expand_count_cache_hits_total",
		"Counted-hop sources served from the engine's SDMC count cache.")
	s.mCacheMisses = s.reg.Counter("gsqld_expand_count_cache_misses_total",
		"Counted-hop sources that missed the SDMC count cache.")
	s.mSDMCRuns = s.reg.Counter("gsqld_expand_sdmc_runs_total",
		"Single-source SDMC count runs (BFS or enumeration) executed.")
	s.mShards = s.reg.Counter("gsqld_expand_shards_total",
		"Shards FROM-clause hop expansion was split into, summed over hops.")
	s.mAccumCompiled = s.reg.Counter("gsqld_accum_compiled_stmts_total",
		"ACCUM/POST-ACCUM statements executed on the compiled kernel path.")
	// Always 0 now that every clause compiles; still registered because
	// the benchmark scrapes it.
	s.mAccumInterpreted = s.reg.Counter("gsqld_accum_interpreted_stmts_total",
		"ACCUM/POST-ACCUM statements executed by the tree-walking interpreter.")
	s.mAccumMisses = s.reg.Counter("gsqld_accum_unboxed_misses_total",
		"Compiled statement executions whose unboxed evaluation missed and re-ran boxed.")
	s.mFusedBlocks = s.reg.Counter("gsqld_fusion_blocks_fused_total",
		"SELECT blocks executed inside a fused group sharing one traversal.")
	s.mWALRecords = s.reg.Counter("gsqld_storage_wal_records_total",
		"Mutation records appended to the write-ahead log.")
	s.mWALBytes = s.reg.Counter("gsqld_storage_wal_bytes_total",
		"Bytes appended to the write-ahead log, frames included.")
	s.mCheckpoints = s.reg.Counter("gsqld_storage_checkpoints_total",
		"Snapshots written (initial persist, /admin/checkpoint, drain).")
	s.mRecoveries = s.reg.Counter("gsqld_storage_recoveries_total",
		"Opens that recovered persisted state (snapshot load + WAL replay).")
	s.mTracedRuns = s.reg.Counter("gsqld_traced_runs_total",
		"Runs executed with a span trace attached (?trace=1 or slow-query log).")
	s.mSlowQueries = s.reg.Counter("gsqld_slow_queries_total",
		"Runs at or above the slow-query threshold.")
	s.mMVCCPinned = s.reg.Gauge("gsqld_mvcc_snapshots_pinned",
		"Runs currently executing against a pinned graph snapshot.")
	s.mMVCCDelta = s.reg.Gauge("gsqld_mvcc_delta_records",
		"Mutation records accumulated since the graph's last fold point.")
	s.mMVCCFolds = s.reg.Counter("gsqld_mvcc_folds_total",
		"Delta folds re-basing the graph's canonical representation.")
	s.mGCCycles = s.reg.Counter("gsqld_runtime_gc_cycles_total",
		"Completed Go GC cycles.")
	s.mGCCPU = s.reg.FloatCounter("gsqld_runtime_gc_cpu_seconds_total",
		"Estimated CPU time spent in the Go GC (runtime/metrics /cpu/classes/gc/total).")
	s.mHeapAlloc = s.reg.Counter("gsqld_runtime_heap_alloc_bytes_total",
		"Bytes allocated on the Go heap since process start.")
	s.mHeapLive = s.reg.Gauge("gsqld_runtime_heap_live_bytes",
		"Heap bytes the last GC cycle marked live.")
	if cfg.Follower != nil {
		s.mReplApplied = s.reg.Counter("gsqld_replication_records_applied_total",
			"WAL records shipped from the leader and applied locally.")
		s.mReplBytes = s.reg.Counter("gsqld_replication_bytes_total",
			"WAL bytes shipped from the leader and applied, frames included.")
		s.mReplBootstraps = s.reg.Counter("gsqld_replication_bootstraps_total",
			"Snapshot bootstraps (initial and after falling past leader retention).")
		s.mReplReconnects = s.reg.Counter("gsqld_replication_reconnects_total",
			"Tail-loop reconnects after a failed or rejected leader fetch.")
		s.mReplLagRecords = s.reg.Gauge("gsqld_replication_lag_records",
			"Records behind the leader at the last fetch (lower bound across a segment rotation).")
		s.mReplLagBytes = s.reg.Gauge("gsqld_replication_lag_bytes",
			"WAL bytes behind the leader at the last fetch (lower bound across a segment rotation).")
	}
	s.registerBuildInfo()
	s.syncStorageMetrics() // fold in recovery/initial-persist counts from Open
	s.syncReplicationMetrics()
	s.syncMVCCMetrics() // folds from WAL replay before the server existed
	s.syncRuntimeMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", s.handleInstall)
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("POST /queries/{name}/run", s.handleRun)
	mux.HandleFunc("POST /graph/vertices", s.handleAddVertex)
	mux.HandleFunc("POST /graph/vertices/attrs", s.handleSetVertexAttrs)
	mux.HandleFunc("POST /graph/edges", s.handleAddEdge)
	mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/metrics/history", s.handleMetricsHistory)
	mux.HandleFunc("GET /cluster/node", s.handleClusterNode)
	mux.HandleFunc("GET /cluster/status", s.handleClusterStatus)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.Store != nil && cfg.Follower == nil {
		// Any durable non-follower gsqld can lead: the replication
		// routes are read-only views of the store, safe to expose
		// unconditionally next to the query routes.
		s.leader = replication.NewLeader(cfg.Store, s.log)
		s.leader.Register(mux)
	}
	if cfg.MetricsHistory > 0 {
		s.hist = metrics.NewHistory(s.reg, cfg.MetricsHistory, cfg.MetricsHistorySize)
		// Samples must see the same values a scrape would, so fold the
		// externally-owned counters in before each Gather.
		s.hist.PreSample = func() {
			s.syncStorageMetrics()
			s.syncReplicationMetrics()
			s.syncMVCCMetrics()
			s.syncRuntimeMetrics()
		}
		s.hist.Start()
	}
	s.mux = mux
	s.root = s.withRequestID(mux)
	return s
}

// History exposes the metrics history sampler (nil when disabled).
func (s *Server) History() *metrics.History { return s.hist }

// Handler returns the root http.Handler (request-id middleware
// included).
func (s *Server) Handler() http.Handler { return s.root }

// ServeHTTP makes Server itself an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.root.ServeHTTP(w, r) }

// Registry exposes the metrics registry (tests, expvar publication).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// ReplicationLock exposes the writer mutex for a follower to bind
// (replication.Follower.Bind holds it around each applied record, so
// shipped records land with the same exclusion the mutation routes
// get; reads stay lock-free on pinned snapshots either way).
func (s *Server) ReplicationLock() sync.Locker { return &s.wmu }

// AddTrace retains a span in the /debug/traces ring — the follower's
// bootstrap and rotation spans land next to query and mutation traces.
func (s *Server) AddTrace(sp *trace.Span) { s.ring.Add(sp) }

// store returns the store whose counters the storage metrics reflect:
// the configured one, or in follower mode the follower's current store
// (which a re-bootstrap may have replaced since the last call).
func (s *Server) store() *storage.Store {
	if s.cfg.Follower != nil {
		return s.cfg.Follower.Store()
	}
	return s.cfg.Store
}

// PublishExpvar publishes the registry under name in the process-wide
// expvar namespace, so GET /debug/vars includes the gsqld metrics next
// to memstats. Publishing is process-global and panics on duplicate
// names, so it is an explicit step the binary takes once rather than a
// side effect of New (tests build many Servers per process).
func (s *Server) PublishExpvar(name string) {
	s.reg.PublishExpvar(name)
}

// Shutdown stops admitting work, waits for in-flight runs to drain or
// for ctx to expire, then — when a Store is attached and the drain
// completed — checkpoints it, so a graceful stop leaves a fresh
// snapshot and an empty WAL for the next boot to open instantly. New
// requests get 503 while draining.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.hist != nil {
		s.hist.Stop()
	}
	s.log.Info("draining", "reason", "shutdown")
	start := time.Now()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.log.Error("shutdown drain timed out", "waited", time.Since(start))
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
	// A follower never checkpoints on its own: its snapshot/WAL
	// generations must keep mirroring the leader's, and its position is
	// already continuously durable (every applied record is re-logged).
	if s.cfg.Store != nil && s.cfg.Follower == nil {
		s.wmu.Lock()
		err := s.cfg.Store.Checkpoint()
		s.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("server: checkpoint on drain: %w", err)
		}
	}
	s.log.Info("drained", "waited", time.Since(start),
		"checkpointed", s.cfg.Store != nil && s.cfg.Follower == nil)
	return nil
}

// ---- request/response shapes ---------------------------------------------

type installRequest struct {
	Source string `json:"source"`
}

type installResponse struct {
	Installed []string `json:"installed"`
}

type runRequest struct {
	Params    map[string]json.RawMessage `json:"params"`
	TimeoutMs int64                      `json:"timeout_ms"`
}

type runResponse struct {
	Query     string                `json:"query"`
	RequestID string                `json:"request_id,omitempty"`
	ElapsedMs float64               `json:"elapsed_ms"`
	Tables    map[string]*tableJSON `json:"tables,omitempty"`
	Printed   []*tableJSON          `json:"printed,omitempty"`
	Returned  *tableJSON            `json:"returned,omitempty"`
	Stats     runStatsJSON          `json:"stats"`
	// Trace is the run's span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *trace.Span `json:"trace,omitempty"`
}

type runStatsJSON struct {
	BindingRows           int64 `json:"binding_rows"`
	Selects               int64 `json:"selects"`
	CountCacheHits        int64 `json:"count_cache_hits"`
	CountCacheMisses      int64 `json:"count_cache_misses"`
	SDMCRuns              int64 `json:"sdmc_runs"`
	ExpandShards          int64 `json:"expand_shards"`
	AccumCompiledStmts    int64 `json:"accum_compiled_stmts"`
	AccumInterpretedStmts int64 `json:"accum_interpreted_stmts"` // always 0
	AccumUnboxedMisses    int64 `json:"accum_unboxed_misses"`
	FusionBlocksFused     int64 `json:"fusion_blocks_fused"`
}

type queryInfo struct {
	Name   string      `json:"name"`
	Params []paramInfo `json:"params"`
}

type paramInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// Leader carries the leader's base URL on a follower's read_only
	// rejection (alongside the Leader response header), so load
	// generators and clients can redirect the mutation without
	// out-of-band configuration.
	Leader string `json:"leader,omitempty"`
}

// ---- error mapping --------------------------------------------------------

// httpStatus maps the core error taxonomy onto HTTP statuses:
// ErrParse 400, ErrUnknownQuery 404, ErrDuplicateQuery and
// ErrDuplicateKey 409, ErrCancelled 408, ErrResourceLimit 422,
// ErrOverload 429; anything else is a 500.
func httpStatus(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrParse):
		return http.StatusBadRequest, "parse_error"
	case errors.Is(err, core.ErrUnknownQuery):
		return http.StatusNotFound, "unknown_query"
	case errors.Is(err, core.ErrDuplicateQuery):
		return http.StatusConflict, "duplicate_query"
	case errors.Is(err, graph.ErrDuplicateKey):
		return http.StatusConflict, "duplicate_key"
	case errors.Is(err, core.ErrCancelled):
		return http.StatusRequestTimeout, "cancelled"
	case errors.Is(err, core.ErrResourceLimit):
		return http.StatusUnprocessableEntity, "resource_limit"
	case errors.Is(err, core.ErrOverload):
		return http.StatusTooManyRequests, "overload"
	case errors.Is(err, replication.ErrReadOnly):
		return http.StatusForbidden, "read_only"
	}
	return http.StatusInternalServerError, "internal"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status, code := httpStatus(err)
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

// ---- handlers -------------------------------------------------------------

func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.mRejected.With("draining").Inc()
	writeJSON(w, http.StatusServiceUnavailable,
		errorResponse{Error: "server is draining", Code: "draining"})
	return true
}

// rejectReadOnly 403s mutation routes on a follower, advertising the
// leader's base URL in a Leader response header and the JSON body so
// the client can redirect the write itself.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if s.cfg.Follower == nil {
		return false
	}
	s.mRejected.With("read_only").Inc()
	leader := s.cfg.Follower.LeaderURL()
	if leader != "" {
		w.Header().Set("Leader", leader)
	}
	writeJSON(w, http.StatusForbidden, errorResponse{
		Error:  fmt.Sprintf("%v (mutate the leader at %s)", replication.ErrReadOnly, leader),
		Code:   "read_only",
		Leader: leader,
	})
	return true
}

// handleInstall accepts GSQL source — raw text, or JSON
// {"source": "..."} when Content-Type is application/json — parses and
// installs every query in it, and echoes the installed names.
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "reading body: " + err.Error(), Code: "bad_request"})
		return
	}
	src := string(body)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req installRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "decoding JSON body: " + err.Error(), Code: "bad_request"})
			return
		}
		src = req.Source
	}
	f, err := gsql.Parse(src)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %w", core.ErrParse, err))
		return
	}
	// Install validates queries against the graph's schema. The engine
	// loads its graph pointer atomically, so a follower re-bootstrap
	// swapping the graph mid-install is safe without any lock here —
	// the schema is immutable per graph.
	err = s.eng.Install(src)
	if err != nil {
		writeError(w, err)
		return
	}
	names := make([]string, len(f.Queries))
	for i, q := range f.Queries {
		names[i] = q.Name
	}
	s.mInstalled.Set(int64(len(s.eng.Queries())))
	s.log.Info("queries installed",
		"request_id", requestID(r.Context()),
		"trace_id", traceID(r.Context()),
		"queries", names,
		"catalog_size", len(s.eng.Queries()))
	writeJSON(w, http.StatusCreated, installResponse{Installed: names})
}

// handleList returns the catalog with each query's typed signature.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.eng.Queries()
	out := make([]queryInfo, 0, len(names))
	for _, name := range names {
		specs, err := s.eng.QueryParams(name)
		if err != nil {
			continue // raced with nothing — catalog only grows
		}
		qi := queryInfo{Name: name, Params: make([]paramInfo, len(specs))}
		for i, p := range specs {
			qi.Params[i] = paramInfo{Name: p.Name, Type: typeString(p.Type)}
		}
		out = append(out, qi)
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": out})
}

func typeString(t gsql.TypeRef) string {
	if t.VertexType != "" {
		return "vertex<" + t.VertexType + ">"
	}
	return t.Kind.String()
}

// handleRun executes an installed query under an admission slot and a
// deadline, recording latency and binding-row histograms.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	name := r.PathValue("name")
	specs, err := s.eng.QueryParams(name)
	if err != nil {
		writeError(w, err) // 404 before burning an admission slot
		return
	}
	var req runRequest
	if r.Body != nil {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "reading body: " + err.Error(), Code: "bad_request"})
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				writeJSON(w, http.StatusBadRequest,
					errorResponse{Error: "decoding JSON body: " + err.Error(), Code: "bad_request"})
				return
			}
		}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = min(time.Duration(req.TimeoutMs)*time.Millisecond, s.cfg.MaxTimeout)
	}

	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, core.ErrOverload) {
			s.mRejected.With("overload").Inc()
		}
		writeError(w, err)
		return
	}
	defer s.adm.release()
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.mInflight.Inc()
	defer s.mInflight.Dec()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// A span tree is collected when the client asks for it inline
	// (?trace=1), the request carries a cross-process X-Trace-Id (the
	// caller intends to fetch the tree by id later), or the slow-query
	// log is armed — in the latter case every run traces, because by
	// the time a run proves slow it is too late to start instrumenting
	// it.
	wantTrace := traceWanted(r)
	tid := traceID(r.Context())
	var root *trace.Span
	if wantTrace || tid != "" || s.cfg.SlowQueryThreshold > 0 {
		root = startTrace("query", r)
		ctx = trace.NewContext(ctx, root)
		s.mTracedRuns.Inc()
	}
	// Everything that reads the graph — parameter decoding (vertex
	// params resolve keys), execution, and response rendering (tables
	// hold VIDs that render as keys) — runs against ONE pinned snapshot,
	// taken here at admission. Concurrent mutations, a follower applying
	// shipped records, even a delta fold re-basing the graph: none of
	// them touch this run, and the run takes no lock. The response is
	// internally consistent at the snapshot's epoch by construction.
	snap := s.eng.Graph().Snapshot()
	root.SetInt("snapshot_epoch", int64(snap.Epoch()))
	s.mMVCCPinned.Inc()
	defer s.mMVCCPinned.Dec()
	start := time.Now()
	args, err := decodeParams(snap, specs, req.Params)
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: err.Error(), Code: "bad_params"})
		return
	}
	res, err := s.eng.RunOn(ctx, snap, name, args)
	elapsed := time.Since(start)
	root.End()
	s.mLatency.With(name).Observe(elapsed.Seconds())
	slow := s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold
	if err != nil {
		status := "error"
		if errors.Is(err, core.ErrCancelled) {
			status = "cancelled"
		}
		root.SetStr("error", err.Error())
		if wantTrace || tid != "" || slow {
			s.ring.Add(root)
		}
		if slow {
			s.logSlowQuery(r, name, req, elapsed, status, root)
		}
		s.mRuns.With(name, status).Inc()
		writeError(w, err)
		return
	}
	if wantTrace || tid != "" || slow {
		s.ring.Add(root)
	}
	if slow {
		s.logSlowQuery(r, name, req, elapsed, "ok", root)
	}
	s.mRuns.With(name, "ok").Inc()
	s.mRows.With(name).Observe(float64(res.Stats.BindingRows))
	s.mCacheHits.Add(uint64(res.Stats.CountCacheHits))
	s.mCacheMisses.Add(uint64(res.Stats.CountCacheMisses))
	s.mSDMCRuns.Add(uint64(res.Stats.SDMCRuns))
	s.mShards.Add(uint64(res.Stats.ExpandShards))
	s.mAccumCompiled.Add(uint64(res.Stats.AccumCompiledStmts))
	s.mAccumInterpreted.Add(uint64(res.Stats.AccumInterpretedStmts))
	s.mAccumMisses.Add(uint64(res.Stats.AccumUnboxedMisses))
	s.mFusedBlocks.Add(uint64(res.Stats.FusionBlocksFused))

	resp := runResponse{
		Query:     name,
		RequestID: requestID(r.Context()),
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Stats: runStatsJSON{
			BindingRows:           res.Stats.BindingRows,
			Selects:               res.Stats.Selects,
			CountCacheHits:        res.Stats.CountCacheHits,
			CountCacheMisses:      res.Stats.CountCacheMisses,
			SDMCRuns:              res.Stats.SDMCRuns,
			ExpandShards:          res.Stats.ExpandShards,
			AccumCompiledStmts:    res.Stats.AccumCompiledStmts,
			AccumInterpretedStmts: res.Stats.AccumInterpretedStmts,
			AccumUnboxedMisses:    res.Stats.AccumUnboxedMisses,
			FusionBlocksFused:     res.Stats.FusionBlocksFused,
		},
	}
	if len(res.Tables) > 0 {
		resp.Tables = make(map[string]*tableJSON, len(res.Tables))
		for tn, t := range res.Tables {
			resp.Tables[tn] = toTableJSON(snap, t)
		}
	}
	for _, t := range res.Printed {
		resp.Printed = append(resp.Printed, toTableJSON(snap, t))
	}
	if res.Returned != nil {
		resp.Returned = toTableJSON(snap, res.Returned)
	}
	if wantTrace {
		resp.Trace = root
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncStorageMetrics()
	s.syncReplicationMetrics()
	s.syncMVCCMetrics()
	s.syncRuntimeMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// 503 while draining so load balancers and scrapes agree the
		// instance is on its way out (runs still in flight complete).
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{
		"status":  status,
		"role":    s.role(),
		"version": s.buildVersion,
		"commit":  s.buildCommit,
	})
}
