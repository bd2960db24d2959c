package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The benchmark runs from the repository root and takes its workload
// and metric tables from BENCHMARK.json there; so do its tests.
func TestMain(m *testing.M) {
	err := os.Chdir("..")
	if err == nil {
		err = loadDefinitions()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// BENCHMARK.json must keep to the driver's contract, and the program
// must know how to run and gate every workload it names.
func TestBenchmarkJSONContract(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := all[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
	}
	if len(all) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(all))
	}
	if string(all["paths"]) != `["benchmark"]` {
		t.Errorf("paths = %s", all["paths"])
	}
	if runSeconds > 60 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("run_seconds %d, %d workloads", runSeconds, len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		once(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := newStream(w.Name, 7, "t"); err != nil {
			t.Error(err)
		}
		if len(gated[w.Name]) == 0 {
			t.Errorf("%s gates no class metric", w.Name)
		}
	}
	var setup float64
	for _, m := range endToEnd {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %+v", m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = m.Bound
		}
	}
	for _, m := range endToEnd {
		if m.Bound > setup {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
	for _, m := range perLayer {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per_layer %+v", m)
		}
	}
	classMetric := map[string]bool{}
	for _, m := range classMetrics {
		classMetric[m.name] = true
		if !seen[m.name] {
			t.Errorf("class metric %s is not in BENCHMARK.json", m.name)
		}
	}
	for w, names := range gated {
		for _, n := range names {
			if !classMetric[n] {
				t.Errorf("%s gates %s, which is no class metric", w, n)
			}
		}
	}
}

// Every workload, traced, at a 1 s window and a 20-op ladder: each run
// must pass its output checks and print every metric BENCHMARK.json
// names, with its unit, and none it does not name.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child gsqld processes; skipped by -short")
	}
	j := &janitor{}
	defer j.run()
	bin, _, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o := options{workload: w.Name, seed: 7, seconds: 1, trace: true, setups: 1, traceOps: 20}
		if w.Name == "analytic" {
			o.traceOps = 4 // one round: its PathsAll rung alone is 300 single-source counts
		}
		res := runWorkload(j, bin, o)
		if !res.Correct || res.err != nil {
			t.Fatalf("%s: correct=%v: %v", w.Name, res.Correct, res.err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.Attempted, res.Failed)
		}
		var out bytes.Buffer
		res.print(&out)
		// runWorkload itself refuses a run that measured anything but the
		// metrics BENCHMARK.json names; here, that each is printed.
		for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if !strings.Contains(out.String(), " "+m.Name+" ") {
				t.Errorf("%s: %s is not printed", w.Name, m.Name)
			}
		}
		if !strings.Contains(out.String(), "failed_share 0.00000 share") {
			t.Errorf("%s: failed_share is not printed", w.Name)
		}
		// The result line carries exactly the traced run's metrics, each
		// with its unit.
		var line struct {
			Metrics map[string]struct {
				Unit string `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.jsonLine()), &line); err != nil {
			t.Fatal(err)
		}
		for _, m := range perLayer {
			if line.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s: result line has %s in %q, want %q", w.Name, m.Name, line.Metrics[m.Name].Unit, m.Unit)
			}
		}

		// The workloads separate the layers as README.md predicts.
		l := res.Layers
		switch w.Name {
		case "ic-read":
			if l["count_cache_hit_share"] < 0.99 || l["wal_records"] != 0 {
				t.Errorf("ic-read: count_cache_hit_share %v, wal_records %v", l["count_cache_hit_share"], l["wal_records"])
			}
		case "ic-mixed":
			if l["count_cache_hit_share"] > 0.5 {
				t.Errorf("ic-mixed: count_cache_hit_share %v", l["count_cache_hit_share"])
			}
		case "write-only":
			if l["sdmc_runs"] != 0 || l["binding_rows"] != 0 || l["accum_stmts"] != 0 {
				t.Errorf("write-only moved engine counters: sdmc_runs %v, binding_rows %v, accum_stmts %v",
					l["sdmc_runs"], l["binding_rows"], l["accum_stmts"])
			}
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(tracePath(w.Name)); err != nil {
			t.Errorf("the traced run left no spans: %v", err)
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, med, q3, share := spread(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || share != 1.0 {
		t.Errorf("spread = %v %v %v %v", q1, med, q3, share)
	}
}
