package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 10}, 4.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p, v  float64
		found bool
	}{
		{10000, 99.9, 9990, true},
		{1000, 99, 990, true},
		{999, 98, 980, true}, // p99: rank 990 leaves only 9 beyond
		{100, 90, 90, true},
		{40, 75, 30, true},
		{39, 0, 0, false},
	} {
		p, v, ok := tailPercentile(seq(tc.n), 10)
		if p != tc.p || v != tc.v || ok != tc.found {
			t.Errorf("n=%d: tailPercentile = p%v %v %v, want p%v %v %v", tc.n, p, v, ok, tc.p, tc.v, tc.found)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, p)
			}
		}
	}
}
