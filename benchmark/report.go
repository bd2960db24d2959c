package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// print writes the human-readable report of one run: every metric by
// name with its unit and, where it has one, its sample count.
func (r *result) print(w io.Writer) {
	mode := "timed"
	if r.opts.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s run, seed %d, %d s) ==\n", r.opts.workload, mode, r.opts.seed, r.opts.seconds)
	if r.err != nil {
		fmt.Fprintf(w, "FAILED: %v\n", r.err)
	}
	for _, line := range r.extra {
		fmt.Fprintln(w, line)
	}
	row := func(kind string, m metricDef, v float64) {
		n := ""
		if c, ok := r.samples[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		line := fmt.Sprintf("  %-10s %-28s %16.4f %-7s %-8s %s", kind, m.Name, v, m.Unit, n, r.notes[m.Name])
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if r.EndToEnd != nil {
		for _, m := range endToEnd {
			row("end-to-end", m, r.EndToEnd[m.Name])
		}
	}
	if r.Layers != nil {
		// In BENCHMARK.json's order, which groups them by layer as the
		// table in README.md does.
		for _, m := range perLayer {
			row("per-layer", m, r.Layers[m.Name])
		}
	}
}

// pick returns the class with the largest summed rung-0 time among
// those want accepts: where the traced stream's time went.
func (l *ladder) pick(want func(class string) bool) (string, *rungs) {
	var best string
	var bestSum float64
	classes := make([]string, 0, len(l.byClass))
	for c := range l.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if !want(c) {
			continue
		}
		var sum float64
		for _, v := range l.byClass[c].r0 {
			sum += v
		}
		if sum > bestSum {
			best, bestSum = c, sum
		}
	}
	return best, l.byClass[best]
}

// sumOf adds two equally long sample lists element by element.
func sumOf(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// layerMetrics assembles every per-layer metric of a traced run.
func layerMetrics(l *ladder, win *recorder, pc pacing, delta counters, dur durability,
	cpu0, cpu1 [2]procStat, res *result) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0 // a metric that does not apply to the workload reads 0
	}
	n := func(name string, count int) { res.samples[name] = count }

	// load: failures, the pacer, and what the client adds on top of the
	// server's own clock.
	m["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	n("failed_share", res.Attempted)
	if pc.scheduled > 0 {
		m["late_share"] = float64(pc.late) / float64(pc.scheduled)
		m["max_late_ms"] = float64(pc.maxLate) / float64(time.Millisecond)
		n("late_share", pc.scheduled)
	}
	runs := delta["gsqld_query_latency_seconds_count"]
	if win.reads > 0 && runs > 0 {
		client := float64(win.service) / float64(win.reads) / float64(time.Millisecond)
		m["client_overhead_ms"] = client - 1000*delta["gsqld_query_latency_seconds_sum"]/runs
		n("client_overhead_ms", win.reads)
	}

	// Counters of the pair over the window.
	m["rejected_429"] = delta["rejected_429"]
	m["binding_rows"] = delta["gsqld_query_binding_rows_sum"]
	m["binding_rows_per_read"] = ratio(m["binding_rows"], runs)
	m["expand_shards_per_read"] = ratio(delta["gsqld_expand_shards_total"], runs)
	interpreted := delta["gsqld_accum_interpreted_stmts_total"]
	m["accum_stmts"] = delta["gsqld_accum_compiled_stmts_total"] + interpreted
	m["accum_interpreted_share"] = ratio(interpreted, m["accum_stmts"])
	m["sdmc_runs"] = delta["gsqld_expand_sdmc_runs_total"]
	m["sdmc_runs_per_read"] = ratio(m["sdmc_runs"], runs)
	hits, misses := delta["gsqld_expand_count_cache_hits_total"], delta["gsqld_expand_count_cache_misses_total"]
	m["count_cache_hit_share"] = ratio(hits, hits+misses)
	m["folds"] = delta["gsqld_mvcc_folds_total"]
	m["wal_records"] = delta["gsqld_storage_wal_records_total"]
	m["wal_bytes_per_write"] = ratio(delta["gsqld_storage_wal_bytes_total"], m["wal_records"])
	for _, name := range []string{"binding_rows_per_read", "expand_shards_per_read", "sdmc_runs_per_read"} {
		n(name, int(runs))
	}
	n("count_cache_hit_share", int(hits+misses))
	n("wal_bytes_per_write", int(m["wal_records"]))

	m["lag_records_end"] = float64(dur.lagAtEnd)
	m["catchup_ms"] = float64(dur.catchUp) / float64(time.Millisecond)
	m["recover_ms"] = float64(dur.recover) / float64(time.Millisecond)

	requests := 0
	for _, d := range win.class {
		requests += len(d)
	}
	m["leader_cpu_ms_per_op"] = ratio(float64(cpu1[0].cpu-cpu0[0].cpu)/float64(time.Millisecond), float64(requests))
	m["follower_cpu_ms_per_op"] = ratio(float64(cpu1[1].cpu-cpu0[1].cpu)/float64(time.Millisecond), float64(requests))
	m["leader_rss_peak_mb"] = cpu1[0].rssPeakMB
	n("leader_cpu_ms_per_op", requests)
	n("follower_cpu_ms_per_op", requests)

	// The rungs. Single numbers come from the class the traced stream
	// spent most of its time in; the table below them lists every class.
	if qc, q := l.pick(isQuery); q != nil {
		m["core_run_us"] = median(q.r2)
		m["core_self_us"] = median(q.r2) - median(q.matchPart)
		m["core_allocs_per_run"] = median(q.allocs)
		m["core_bytes_per_run"] = median(q.bytes)
		// Medians of single stages over unlike queries do not add up;
		// core.other_us is taken per run and then the median.
		for _, s := range []string{"hop", "sdmc", "where", "accum", "post_accum", "output"} {
			m["core."+s+"_us"] = median(q.stage[s])
			n("core."+s+"_us", len(q.r2t))
		}
		other := make([]float64, len(q.r2t))
		for i := range other {
			other[i] = q.r2t[i] - q.staged[i]
		}
		m["core.other_us"] = median(other)
		for _, name := range []string{"core_run_us", "core_self_us", "core_allocs_per_run", "core_bytes_per_run", "core.other_us"} {
			n(name, len(q.r2))
		}
		if len(q.plain) >= 30 { // fewer pairs say nothing about a few percent
			m["trace_overhead_share"] = (median(q.withID) - median(q.plain)) / median(q.plain)
			n("trace_overhead_share", len(q.plain))
		}
		res.extra = append(res.extra, fmt.Sprintf("rung metrics of the core layer are for class %q", qc))
	}
	m["sdmc_us"], m["sdmc_allocs"] = median(l.sdmcUs), median(l.sdmcAl)
	n("sdmc_us", len(l.sdmcUs))
	n("sdmc_allocs", len(l.sdmcAl))
	if w := l.byClass[classWrite]; w != nil {
		m["mutate_us"] = median(w.w3)
		m["wal_append_us"] = median(w.w2apply) - median(w.w3)
		m["fsync_wait_us"] = median(w.w2fsy)
		for _, name := range []string{"mutate_us", "wal_append_us", "fsync_wait_us"} {
			n(name, len(w.w3))
		}
	}
	m["ship_us_per_chunk"], m["apply_us_per_record"] = median(l.shipUs), median(l.applyUs)
	n("ship_us_per_chunk", len(l.shipUs))
	n("apply_us_per_record", len(l.applyUs))

	// Attribution of the client-observed median, for the dominant class.
	dc, d := l.pick(func(string) bool { return true })
	if d != nil {
		m["r0_us"] = median(d.r0)
		m["wire_self_us"] = median(d.r0) - median(d.r1)
		var inner float64 // everything below the server rung that a span or rung names
		if isQuery(dc) {
			m["server_self_us"] = median(d.r1) - median(d.r2)
			inner = median(d.staged)
		} else {
			m["server_self_us"] = median(d.r1) - median(sumOf(d.w2apply, d.w2fsy))
			inner = m["wal_append_us"] + m["fsync_wait_us"] + m["mutate_us"]
		}
		m["unattributed_us"] = m["r0_us"] - m["wire_self_us"] - m["server_self_us"] - inner
		for _, name := range []string{"r0_us", "wire_self_us", "server_self_us", "unattributed_us"} {
			n(name, len(d.r0))
		}
		res.extra = append(res.extra, fmt.Sprintf(
			"attribution for class %q: r0_us %.1f = wire_self_us %.1f + server_self_us %.1f + named below the server %.1f + unattributed_us %.1f (%.1f%% of r0_us)",
			dc, m["r0_us"], m["wire_self_us"], m["server_self_us"], inner, m["unattributed_us"], 100*ratio(m["unattributed_us"], m["r0_us"])))
	}
	res.extra = append(res.extra, fmt.Sprintf("traced %d ops one at a time; spans in %s", l.ops, tracePath(res.opts.workload)))
	res.extra = append(res.extra, l.rungTable()...)

	if err := accumInputs(m); err != nil {
		return nil, err
	}
	if err := frontEnd(m); err != nil {
		return nil, err
	}
	if err := l.graphAndStorage(m); err != nil {
		return nil, err
	}
	return m, nil
}

// rungTable lists each traced class's rung medians.
func (l *ladder) rungTable() []string {
	var out []string
	classes := make([]string, 0, len(l.byClass))
	for c := range l.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		r := l.byClass[c]
		if isQuery(c) {
			out = append(out, fmt.Sprintf("  rungs %-9s n=%-4d R0 %.1f us  R1 %.1f us  R2 %.1f us  R3 (when R2 ran SDMC) %.1f us",
				c, len(r.r0), median(r.r0), median(r.r1), median(r.r2), median(r.matchPart)))
		} else {
			out = append(out, fmt.Sprintf("  rungs %-9s n=%-4d W0 %.1f us  W1 %.1f us  W2 %.1f us (apply %.1f + fsync wait %.1f)  W3 %.1f us",
				c, len(r.r0), median(r.r0), median(r.r1), median(sumOf(r.w2apply, r.w2fsy)), median(r.w2apply), median(r.w2fsy), median(r.w3)))
		}
	}
	return out
}
