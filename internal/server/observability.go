package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"gsqlgo/internal/trace"
)

// Observability plumbing for the serving layer: per-request ids, the
// bounded ring of recent traces behind GET /debug/traces, the
// slow-query log, build metadata and the Go runtime's GC series. The
// engine-side span tree comes from internal/trace; this file decides
// when a request carries one and what happens to it afterwards.

// ---- request ids ----------------------------------------------------------

type ridKey struct{}
type tidKey struct{}

// requestID returns the id assigned to this request ("" outside the
// middleware, e.g. direct handler tests).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// traceID returns the client-supplied cross-process trace id ("" when
// the request carried none). Unlike request ids, trace ids are never
// minted server-side: an id only means something if the caller holds
// the same one, so an absent header stays absent.
func traceID(ctx context.Context) string {
	id, _ := ctx.Value(tidKey{}).(string)
	return id
}

// newRequestID mints "pppppppp-N": a per-process random prefix plus a
// monotonic counter — unique across restarts without coordination, and
// cheap enough for every request.
func (s *Server) newRequestID() string {
	return s.ridPrefix + "-" + strconv.FormatUint(s.ridCounter.Add(1), 10)
}

func randPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; ids degrade to the
		// counter alone rather than taking the server down.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// withRequestID is the outermost middleware: honor a caller-supplied
// X-Request-Id (so ids correlate across proxies), mint one otherwise,
// echo it on the response, and stash it in the context for handlers,
// logs and traces. A caller-supplied X-Trace-Id (W3C traceparent-style
// hex; see trace.ValidID) rides the same middleware: it is echoed and
// stashed but never minted — its presence is what arms cross-process
// trace collection for the request, so the caller can fetch the span
// tree that served it at /debug/traces?trace_id= afterwards.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = s.newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), ridKey{}, id)
		if tid := r.Header.Get("X-Trace-Id"); trace.ValidID(tid) {
			w.Header().Set("X-Trace-Id", tid)
			ctx = context.WithValue(ctx, tidKey{}, tid)
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ---- trace plumbing -------------------------------------------------------

// traceWanted reports whether the request asked for an inline trace
// (?trace=1 or ?trace=true).
func traceWanted(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

// startTrace builds a trace root for one request, pre-tagged with the
// operation, request id, and (when the caller sent one) trace id.
func startTrace(op string, r *http.Request) *trace.Span {
	sp := trace.New(op)
	if rid := requestID(r.Context()); rid != "" {
		sp.SetStr("request_id", rid)
	}
	if tid := traceID(r.Context()); tid != "" {
		sp.SetStr("trace_id", tid)
	}
	return sp
}

// handleTraces serves the ring of recent traces, newest first.
// ?trace_id= narrows the response to traces whose root span carries
// that client-supplied id — the fetch-by-id half of cross-process
// propagation (the X-Trace-Id middleware is the inject half).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	spans := s.ring.Snapshot()
	if tid := r.URL.Query().Get("trace_id"); tid != "" {
		matched := spans[:0:0]
		for _, sp := range spans {
			if v, ok := sp.Attr("trace_id"); ok && v == tid {
				matched = append(matched, sp)
			}
		}
		spans = matched
	}
	out := struct {
		Total  uint64        `json:"total"`
		Traces []*trace.Span `json:"traces"`
	}{Total: s.ring.Total(), Traces: spans}
	writeJSON(w, http.StatusOK, out)
}

// ---- slow-query log -------------------------------------------------------

// paramsHash fingerprints a run's parameters (FNV-1a over the
// canonically-ordered raw JSON) so the slow-query log can group
// recurring invocations without logging the values themselves.
func paramsHash(params map[string]json.RawMessage) string {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	write := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h = (h ^ 0xff) * prime64 // separator
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		write(k)
		write(string(params[k]))
	}
	return fmt.Sprintf("%016x", h)
}

// stageSummary flattens a finished trace into "stage=duration" pairs
// (name-aggregated over the whole tree, sorted by name) — the
// per-stage timing field of a slow-query record.
func stageSummary(sp *trace.Span) string {
	if sp == nil {
		return ""
	}
	totals := sp.StageTotals()
	delete(totals, sp.Name()) // the root duplicates the elapsed field
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", n, totals[n].Round(time.Microsecond))
	}
	return b.String()
}

// logSlowQuery emits the structured one-line slow-query record and
// retains the trace in the ring (slow runs are traced even when the
// client did not ask, precisely so this record has stages to report).
func (s *Server) logSlowQuery(r *http.Request, name string, req runRequest, elapsed time.Duration, status string, sp *trace.Span) {
	s.mSlowQueries.Inc()
	s.log.Warn("slow query",
		"query", name,
		"request_id", requestID(r.Context()),
		"trace_id", traceID(r.Context()),
		"params_hash", paramsHash(req.Params),
		"elapsed_ms", float64(elapsed.Microseconds())/1000,
		"threshold_ms", float64(s.cfg.SlowQueryThreshold.Microseconds())/1000,
		"status", status,
		"stages", stageSummary(sp),
	)
}

// ---- build info -----------------------------------------------------------

// buildInfo resolves (version, commit) from the binary's embedded
// build metadata: module version, and the VCS revision stamped by the
// Go toolchain when building inside a checkout. "unknown" when absent
// (go test binaries, source-only builds).
func buildInfo() (version, commit string) {
	version, commit = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, commit
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
			commit = kv.Value[:12]
		}
	}
	return version, commit
}

// registerBuildInfo publishes the gsqld_build_info gauge: constant 1,
// with the build identity carried in labels (the Prometheus
// *_build_info convention, joinable against any other series).
func (s *Server) registerBuildInfo() {
	version, commit := buildInfo()
	s.buildVersion, s.buildCommit = version, commit
	s.reg.GaugeVec("gsqld_build_info",
		"Build metadata; constant 1 with the identity in labels.",
		"go_version", "commit", "version").
		With(runtime.Version(), commit, version).Set(1)
}

// syncRuntimeMetrics folds the Go runtime's GC counters into the
// registry: the runtime owns them, so each counter advances by the
// difference from what it already holds. The live-heap gauge is the
// runtime's own figure, updated at the end of every GC cycle.
func (s *Server) syncRuntimeMetrics() {
	samples := []runtimemetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	s.runtimeMu.Lock()
	defer s.runtimeMu.Unlock()
	runtimemetrics.Read(samples)
	if n, have := samples[0].Value.Uint64(), s.mGCCycles.Value(); n > have {
		s.mGCCycles.Add(n - have)
	}
	if x, have := samples[1].Value.Float64(), s.mGCCPU.Value(); x > have {
		s.mGCCPU.Add(x - have)
	}
	if n, have := samples[2].Value.Uint64(), s.mHeapAlloc.Value(); n > have {
		s.mHeapAlloc.Add(n - have)
	}
	s.mHeapLive.Set(int64(samples[3].Value.Uint64()))
}
