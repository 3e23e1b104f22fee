package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile. With
// fewer samples than 100·minTail, p99 would rest on a handful of outliers,
// so the rule falls back to the highest percentile that still has minTail
// samples beyond it.
const minTail = 10

// tailIndex is the index, in n ascending samples, of the nearest-rank
// q-quantile — lowered, when needed, to the highest index with at least
// minTail samples beyond it. It returns -1 for an empty set.
func tailIndex(n int, q float64) int {
	if n == 0 {
		return -1
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if lim := n - 1 - minTail; i > lim {
		i = lim
	}
	if i < 0 {
		i = 0
	}
	return i
}

// percentile applies tailIndex to an ascending slice (0 when empty).
func percentile(sorted []float64, q float64) float64 {
	i := tailIndex(len(sorted), q)
	if i < 0 {
		return 0
	}
	return sorted[i]
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
