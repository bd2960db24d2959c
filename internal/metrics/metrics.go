// Package metrics is a dependency-free metrics registry for the
// serving layer: counters, gauges and fixed-bucket histograms —
// optionally labeled — with two export surfaces: the Prometheus text
// exposition format (GET /metrics) and expvar JSON (GET /debug/vars).
//
// The implementation is deliberately small (the container image bakes
// in no third-party modules): lock-free atomic hot paths, a mutex only
// on series creation, exposition order fixed by registration order so
// scrapes are deterministic.
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets are the default latency histogram bounds, in
// seconds (upper-inclusive, Prometheus "le" convention).
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DefSizeBuckets are the default bounds for count-valued histograms
// (binding rows, result rows): powers of ten.
var DefSizeBuckets = []float64{0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64, for counters kept
// in fractional units (CPU seconds). Add is lock-free: it CASes the
// float's bits.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds x, which must not be negative for the counter to stay
// monotone.
func (c *FloatCounter) Add(x float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// Value reads the current count.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bound bucket histogram. Observations are
// lock-free; bounds are upper-inclusive with an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     FloatCounter
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the histogram's bucket bounds. Shared, do not mutate.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts reads the per-bucket (non-cumulative) counts; the last
// entry is the implicit +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution from the bucket counts, interpolating linearly within
// the bucket holding the target rank — the same estimate
// histogram_quantile() would compute from the exposition, precomputed
// here so dashboards don't re-derive it. 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	return QuantileFromBuckets(h.bounds, h.BucketCounts(), q)
}

// QuantileFromBuckets is Histogram.Quantile over explicit per-bucket
// counts (len(bounds)+1, last = +Inf) — shared with the metrics
// history, which computes quantiles over bucket *deltas* between two
// samples to get per-window rather than lifetime percentiles.
func QuantileFromBuckets(bounds []float64, buckets []uint64, q float64) float64 {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: no upper bound to interpolate toward; the
			// highest finite bound is the best (under)estimate.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// metric is anything a family's series map can hold.
type metric interface{ isMetric() }

func (*Counter) isMetric()      {}
func (*FloatCounter) isMetric() {}
func (*Gauge) isMetric()        {}
func (*Histogram) isMetric()    {}

// family is one exposition family: a name, a type, label names, and a
// series per observed label-value combination (exactly one unlabeled
// series when labels is empty).
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]metric // key: label values joined by \x1f
	order  []string
}

const labelSep = "\x1f"

func (f *family) get(values []string, make func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := make()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// snapshot returns the series keys in creation order with their
// metrics (stable exposition without holding the lock while writing).
func (f *family) snapshot() ([]string, []metric) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := append([]string(nil), f.order...)
	ms := make([]metric, len(keys))
	for i, k := range keys {
		ms[i] = f.series[k]
	}
	return keys, ms
}

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds, series: map[string]metric{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter", nil, nil)
	return f.get(nil, func() metric { return &Counter{} }).(*Counter)
}

// FloatCounter registers (or fetches) an unlabeled float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	f := r.family(name, help, "counter", nil, nil)
	return f.get(nil, func() metric { return &FloatCounter{} }).(*FloatCounter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge", nil, nil)
	return f.get(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket bounds (nil = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	f := r.family(name, help, "histogram", bounds, nil)
	return f.get(nil, func() metric { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, "counter", nil, labels)}
}

// With returns the series for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, "gauge", nil, labels)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() metric { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family (nil bounds =
// DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{r.family(name, help, "histogram", bounds, labels)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() metric { return newHistogram(v.f.bounds) }).(*Histogram)
}

// ---- exposition ----------------------------------------------------------

// labelString renders {k="v",...} for a series key; extra appends one
// more pair (the histogram "le" label). Go's %q escaping coincides
// with the Prometheus text format's (\\, \", \n).
func (f *family) labelString(key string, extra ...string) string {
	if len(f.labels) == 0 && len(extra) == 0 {
		return ""
	}
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, labelSep)
		for i, l := range f.labels {
			parts = append(parts, fmt.Sprintf("%s=%q", l, values[i]))
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(x float64) string {
	if math.IsInf(x, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		keys, ms := f.snapshot()
		if len(keys) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for i, key := range keys {
			switch m := ms[i].(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(key), m.Value()); err != nil {
					return err
				}
			case *FloatCounter:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelString(key), formatFloat(m.Value())); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(key), m.Value()); err != nil {
					return err
				}
			case *Histogram:
				cum := uint64(0)
				for bi, bound := range m.bounds {
					cum += m.buckets[bi].Load()
					ls := f.labelString(key, "le", formatFloat(bound))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
						return err
					}
				}
				cum += m.buckets[len(m.bounds)].Load()
				ls := f.labelString(key, "le", "+Inf")
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, f.labelString(key), formatFloat(m.Sum())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, f.labelString(key), m.Count()); err != nil {
					return err
				}
			}
		}
		if f.typ == "histogram" {
			if err := writeQuantiles(w, f, keys, ms); err != nil {
				return err
			}
		}
	}
	return nil
}

// expositionQuantiles are the precomputed percentiles appended after
// each histogram family as a derived <name>_quantile gauge family, so
// scrapers without a PromQL engine (gsqltop, curl) get p50/p90/p99
// without re-deriving them from buckets.
var expositionQuantiles = []float64{0.5, 0.9, 0.99}

func writeQuantiles(w io.Writer, f *family, keys []string, ms []metric) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s_quantile gauge\n", f.name); err != nil {
		return err
	}
	for i, key := range keys {
		h, ok := ms[i].(*Histogram)
		if !ok {
			continue
		}
		buckets := h.BucketCounts()
		for _, q := range expositionQuantiles {
			ls := f.labelString(key, "q", formatFloat(q))
			v := QuantileFromBuckets(h.bounds, buckets, q)
			if _, err := fmt.Fprintf(w, "%s_quantile%s %s\n", f.name, ls, formatFloat(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- structured gather ---------------------------------------------------

// Point is one series' state at a moment: name, rendered labels, kind,
// and the kind-appropriate payload. The structured sibling of
// WritePrometheus, consumed by the metrics history sampler and the
// /cluster/node status builder — both need values, not text.
type Point struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"` // rendered {a="b",...}, "" when unlabeled
	Kind   string  `json:"kind"`             // "counter" | "gauge" | "histogram"
	Value  float64 `json:"value"`            // counters and gauges

	// Histograms only.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`  // shared with the live histogram; do not mutate
	Buckets []uint64  `json:"buckets,omitempty"` // per-bucket counts, len(Bounds)+1 (+Inf last)
}

// Key identifies the series across samples: name plus rendered labels.
func (p Point) Key() string { return p.Name + p.Labels }

// Gather snapshots every series in registration order. Values within
// one histogram point are read bucket-by-bucket (same tearing window
// as a scrape), but each Point is internally consistent enough for
// rate and quantile math over successive gathers.
func (r *Registry) Gather() []Point {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var out []Point
	for _, f := range fams {
		keys, ms := f.snapshot()
		for i, key := range keys {
			p := Point{Name: f.name, Labels: f.labelString(key), Kind: f.typ}
			switch m := ms[i].(type) {
			case *Counter:
				p.Value = float64(m.Value())
			case *FloatCounter:
				p.Value = m.Value()
			case *Gauge:
				p.Value = float64(m.Value())
			case *Histogram:
				p.Count = m.Count()
				p.Sum = m.Sum()
				p.Bounds = m.bounds
				p.Buckets = m.BucketCounts()
			}
			out = append(out, p)
		}
	}
	return out
}

// PublishExpvar publishes the registry as one expvar.Func under name.
// expvar publication is process-global and panics on duplicate names,
// so callers do this once per process, not per registry build.
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Snapshot returns a JSON-marshalable view of every series — the
// expvar surface. Histograms export {count, sum}; labeled series are
// keyed "name{a=x,b=y}".
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	out := map[string]any{}
	for _, f := range fams {
		keys, ms := f.snapshot()
		for i, key := range keys {
			name := f.name
			if len(f.labels) > 0 {
				values := strings.Split(key, labelSep)
				var parts []string
				for li, l := range f.labels {
					parts = append(parts, l+"="+values[li])
				}
				name += "{" + strings.Join(parts, ",") + "}"
			}
			switch m := ms[i].(type) {
			case *Counter:
				out[name] = m.Value()
			case *FloatCounter:
				out[name] = m.Value()
			case *Gauge:
				out[name] = m.Value()
			case *Histogram:
				out[name] = map[string]any{"count": m.Count(), "sum": m.Sum()}
			}
		}
	}
	return out
}
