package main

import (
	"sort"
	"time"
)

// Latencies are kept as raw samples and quantiles are exact. load.Hist
// would answer with the midpoint of a 3 % bucket: the same digits run
// after run, and a step as large as the run-to-run spread the bounds
// are set from.

// quantile returns the q-quantile of sorted xs by linear interpolation
// (0 for no samples).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// durs is a latency sample set.
type durs []time.Duration

func (d durs) in(unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// q returns the q-quantile in the given unit.
func (d durs) q(q float64, unit time.Duration) float64 {
	return quantile(sortedCopy(d.in(unit)), q)
}

// spread is the distance between the first and third quartile as a
// share of the median — Python's statistics.quantiles(values, n=4)
// (exclusive method), which is what the acceptance check computes.
func spread(xs []float64) (q1, med, q3, share float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0], 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1 // exclusive method, 0-based
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	q1, med, q3 = at(0.25), at(0.5), at(0.75)
	if med != 0 {
		share = (q3 - q1) / med
	}
	return q1, med, q3, share
}
