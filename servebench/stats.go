package main

import (
	"math"
	"slices"
	"sort"
)

// quantile is the exact nearest-rank q-quantile of xs (sorted in place),
// and how many samples lie strictly above it.
func quantile(xs []int64, q float64) (v int64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	rank = min(max(rank, 0), len(xs)-1)
	v = xs[rank]
	beyond = len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > v })
	return v, beyond
}

// rateSlices is how many equal slices of the timed window ops_per_s takes
// the median over, so a burst of interference in part of a run does not
// move it.
const rateSlices = 5

// sliceRates splits the window into n equal slices by frame completion
// time and returns each slice's completed ops per second.
func sliceRates(r *loopResult, n int) []float64 {
	ops := make([]float64, n)
	width := float64(r.elapsed) / float64(n)
	for _, s := range r.samples {
		i := min(int(float64(s.end)/width), n-1)
		ops[i] += frameOps
	}
	for i := range ops {
		ops[i] /= width / 1e9
	}
	return ops
}

// median of xs (sorted in place); the mean of the middle two for even n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs (sorted in place)
// by the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n + 1.
		pos := float64(j*(n+1)) / 4
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 1:
			return xs[0]
		case i >= n:
			return xs[n-1]
		}
		return xs[i-1] + frac*(xs[i]-xs[i-1])
	}
	return at(1), at(3)
}
