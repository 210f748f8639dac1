package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between the two nearest ranks; it is 0 for an empty slice.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), which is what the acceptance spread is taken from.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// nsQuantile sorts nanosecond samples in place and returns their
// q-quantile, in the same unit.
func nsQuantile(ns []int64, q float64) float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return quantile(ns, q)
}
