package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile (p in (0,1]) of an ascending
// slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder lists the tail percentiles the reports may quote, highest
// first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// highestTail picks the highest percentile of tailLadder that still has
// at least ten of n samples beyond it, so a quoted tail is never one or
// two outliers. ok is false when even the lowest rung has fewer, and the
// median is then the only figure worth quoting.
func highestTail(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is the spread rule the acceptance check uses. It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	ld := len(asc)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(3)
}
