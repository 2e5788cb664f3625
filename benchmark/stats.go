package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule:
// the smallest sample with at least q of the samples at or below it. The
// input is not modified. An empty sample yields NaN, so a phase that
// recorded nothing can never pass for a fast one.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// does (the default "exclusive" method), because the driver that accepts
// this benchmark computes its spreads with that function.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// repeatability figure every bound in BENCHMARK.json is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// topDecile is what a rate's rounds are reduced to: the 90th percentile.
// Every round of a stage does the same work, so a change to the code moves
// all of them alike, while the reference box — a shared virtual machine —
// slows some rounds of every run by a third or more, and only ever slows
// them. The upper decile stays on the undisturbed rounds; over the
// calibration runs it repeated better than the median or the upper quartile
// for every rate (README.md, "How a number is made").
func topDecile(xs []float64) float64 { return percentile(xs, 0.9) }
