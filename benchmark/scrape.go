package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// counters is one scrape of a node's GET /metrics: every sample summed
// over its labels, keyed by metric name (histogram _sum and _count
// series keep their suffix; _bucket series are dropped).
type counters map[string]float64

func (e *env) scrape(n *node) (counters, error) {
	resp, err := e.http.Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := counters{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:sp]
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out[name] += v
		if name == "gsqld_rejected_total" && strings.Contains(labels, `reason="overload"`) {
			out["rejected_429"] += v
		}
	}
	return out, nil
}

// scrapePair sums both nodes' counters, so reads served by either show.
func (e *env) scrapePair() (counters, error) {
	l, err := e.scrape(e.pair.leader)
	if err != nil {
		return nil, err
	}
	f, err := e.scrape(e.pair.follower)
	if err != nil {
		return nil, err
	}
	for k, v := range f {
		// The follower re-logs what it applies; WAL and fold counts are
		// the leader's write path only.
		if strings.HasPrefix(k, "gsqld_storage_") || strings.HasPrefix(k, "gsqld_mvcc_") {
			continue
		}
		l[k] += v
	}
	return l, nil
}

// minus returns after − before per counter.
func (after counters) minus(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
