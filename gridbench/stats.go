package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before the benchmark reports it: a p50 needs 20 samples, a p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether xs holds at least minBeyond samples beyond it. xs is sorted in
// place. An unsupported percentile is never reported.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < minBeyond-1e-9 {
		return 0, false
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], true
}

// median returns the middle of xs (mean of the two middles for an even
// count), sorting xs in place; 0 for no samples. It is for summaries of
// repeated measurements, where percentile's sample rule does not apply.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same "exclusive" method as Python's statistics.quantiles(xs,
// n=4), so a spread computed here matches one computed there. xs is
// sorted in place; fewer than two samples give that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sort.Float64s(xs)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
