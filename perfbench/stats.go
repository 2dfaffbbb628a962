package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder tailPercentile picks from, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75}

// tailPercentile returns the highest percentile on the ladder that has
// at least minBeyond samples above it, with its nearest-rank value. ok is
// false when even the lowest rung has too few samples beyond it.
func tailPercentile(xs []float64, minBeyond int) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
