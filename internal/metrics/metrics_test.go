package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("inflight", "in flight")
	g.Set(3)
	g.Dec()
	g.Inc()
	g.Add(-2)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	// Re-registering the same name returns the same series.
	if r.Counter("reqs_total", "requests").Value() != 5 {
		t.Fatal("re-registration did not return the existing counter")
	}
	fc := r.FloatCounter("cpu_seconds_total", "cpu")
	fc.Add(0.25)
	fc.Add(1.5)
	if got := fc.Value(); got != 1.75 {
		t.Fatalf("float counter = %v, want 1.75", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE cpu_seconds_total counter\ncpu_seconds_total 1.75\n") {
		t.Fatalf("float counter exposition:\n%s", sb.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.1, 1, 10})
	for _, x := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 55.65; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Upper-inclusive cumulative buckets: 0.05 and 0.1 ≤ 0.1; 0.5 ≤ 1;
	// 5 ≤ 10; 50 only in +Inf.
	for _, want := range []string{
		`lat_bucket{le="0.1"} 2`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 55.65`,
		`lat_count 5`,
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("runs_total", "per-query runs", "query", "status")
	v.With("pagerank", "ok").Add(2)
	v.With("pagerank", "error").Inc()
	v.With("pagerank", "ok").Inc() // same series
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `runs_total{query="pagerank",status="ok"} 3`) {
		t.Errorf("missing ok series:\n%s", out)
	}
	if !strings.Contains(out, `runs_total{query="pagerank",status="error"} 1`) {
		t.Errorf("missing error series:\n%s", out)
	}
	snap := r.Snapshot()
	if snap["runs_total{query=pagerank,status=ok}"] != uint64(3) {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "", "q").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `c{q="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping: %s", sb.String())
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat", "", []float64{1, 2, 3}, "q")
	c := r.CounterVec("n", "", "q")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := []string{"a", "b"}[w%2]
			for i := 0; i < 1000; i++ {
				h.With(q).Observe(float64(i % 5))
				c.With(q).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := h.With("a").Count() + h.With("b").Count(); got != 8000 {
		t.Fatalf("observations = %d, want 8000", got)
	}
	if got := c.With("a").Value() + c.With("b").Value(); got != 8000 {
		t.Fatalf("counts = %d, want 8000", got)
	}
}
