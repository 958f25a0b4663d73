package main

import (
	"fmt"
	"sort"
)

// sample is a set of measurements of one quantity, in the order taken.
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean, 0 for an empty sample.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty sample.
func (s sample) median() float64 {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest value with at least p% of the sample
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(float64(n)*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{90, 95, 99, 99.9, 99.99}

// tail picks the highest candidate percentile that still has at least
// ten samples beyond it, so the reported tail is never a single outlier.
// ok is false when even p90 has fewer than ten samples beyond it.
func tail(sorted []float64) (p, value float64, ok bool) {
	n := len(sorted)
	for _, cand := range tailPercentiles {
		rank := int(float64(n)*cand/100 + 0.999999999)
		if n-rank < 10 {
			break
		}
		p, value, ok = cand, sorted[rank-1], true
	}
	return p, value, ok
}

// summary renders "p50 … pXX … (n=…)" for the human-readable report.
func (s sample) summary(unit string) string {
	v := s.sorted()
	if len(v) == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("p50 %.1f%s", percentile(v, 50), unit)
	if p, val, ok := tail(v); ok {
		out += fmt.Sprintf("  p%g %.1f%s", p, val, unit)
	}
	return out + fmt.Sprintf("  max %.1f%s  (n=%d)", v[len(v)-1], unit, len(v))
}

// spread is the distance between the first and third quartile as a share
// of the median — the statistic the benchmark's bounds are judged by. The
// quartiles are the "exclusive" ones Python's statistics.quantiles(n=4)
// returns. Fewer than two values have no spread.
func (s sample) spread() float64 {
	v := s.sorted()
	n := len(v)
	med := s.median()
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			return v[0]
		}
		if lo >= n {
			return v[n-1]
		}
		return v[lo-1] + (pos-float64(lo))*(v[lo]-v[lo-1])
	}
	d := q(3) - q(1)
	if d < 0 {
		d = -d
	}
	return d / med
}
