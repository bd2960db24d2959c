package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Topology and sizing. Every run boots this pair from the commit under
// test and drives it from this one process.
const (
	snbSF       = 0.3 // 300 Persons, 5 022 vertices, 23 178 edges
	graphSeed   = 7   // gsqld's fixed -builtin snb seed
	icHops      = 2
	clients     = 2    // connections/workers; nproc is 2 here, never more
	leaderProcs = "2"  // leader GOMAXPROCS
	followProcs = "1"  // follower GOMAXPROCS
	openRate    = 200  // ic-mixed arrivals per second; one emitted after the next was due is late
	maxLate     = 0.01 // an open-loop run above this late share is invalid
	setupRuns   = 3    // set-ups per timed run; setup_s is their median
	ladderOps   = 300  // ops per stream in the traced run
)

// ic-mixed's read:write:checkpoint weights. The stream repeats a block
// of 200 ops in which the 39 writes are spread evenly among the reads
// and the checkpoint comes last, so every few reads meet a moved epoch.
const (
	mixRead       = 160
	mixWrite      = 39
	mixCheckpoint = 1
	mixBlock      = mixRead + mixWrite + mixCheckpoint
)

// The workload and metric tables are BENCHMARK.json's, at the root of
// the checkout the benchmark runs from: names, units, directions and
// bounds are written there and nowhere else. Every run reads them and
// refuses to report when what it measured is not exactly what they name.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

var (
	runSeconds int
	workloads  []workloadDef
	endToEnd   []metricDef
	perLayer   []metricDef
)

func loadDefinitions() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the benchmark runs from the root of the checkout: %w", err)
	}
	var doc struct {
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	runSeconds, workloads, endToEnd, perLayer = doc.RunSeconds, doc.Workloads, doc.EndToEnd, doc.PerLayer
	if runSeconds < 1 || len(workloads) == 0 || len(endToEnd) == 0 || len(perLayer) == 0 {
		return fmt.Errorf("BENCHMARK.json names no run_seconds, workloads, end_to_end or per_layer")
	}
	return nil
}

// classMetrics are the end-to-end latencies of one op class each.
var classMetrics = []struct {
	name, class string
	q           float64
}{
	{"read_p50_ms", classRead, 0.50},
	{"read_p95_ms", classRead, 0.95},
	{"write_p50_ms", classWrite, 0.50},
	{"write_p95_ms", classWrite, 0.95},
	{"pagerank_p50_ms", classPageRank, 0.50},
	{"qacc_p50_ms", classQacc, 0.50},
	{"paths_p50_ms", classPaths, 0.50},
}

// gated lists, per workload, the class metrics it is there to show (the
// ● cells of the table in README.md). The driver takes every end-to-end
// metric from every run and none may be 0, so under any other class
// metric's name a run reports the same quantile over all its ops
// instead: a second view of numbers it already gates, never a new one.
// analytic's insert only keeps the count cache cold. write_p95_ms on
// ic-mixed is left out because it does not repeat: over two sets of ten
// runs its spread was 0.09 and 0.15 and its medians 10 % apart, and
// ISSUE 11 has such a metric dropped, not its bound widened.
var gated = map[string][]string{
	"ic-read":    {"read_p50_ms", "read_p95_ms"},
	"ic-mixed":   {"read_p50_ms", "read_p95_ms", "write_p50_ms"},
	"write-only": {"write_p50_ms", "write_p95_ms"},
	"analytic":   {"pagerank_p50_ms", "qacc_p50_ms", "paths_p50_ms"},
}
