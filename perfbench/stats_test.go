package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: tail must sort
	}
	return s
}

// TestTailRule pins the reporting rule: the highest ladder percentile
// with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{5, 0},     // not even the median has 10 beyond: report the max
		{19, 0},    // 9.5 beyond the median
		{20, 50},   // exactly 10 beyond the median
		{39, 50},   // 9.75 beyond p75
		{40, 75},   // 10 beyond p75
		{99, 75},   // 9.9 beyond p90
		{100, 90},  // 10 beyond p90
		{999, 90},  // 9.99 beyond p99
		{1000, 99}, // 10 beyond p99
		{10000, 99.9},
		{100000, 99.99},
	} {
		p, v := tail(seq(tc.n))
		if p != tc.wantP {
			t.Errorf("n=%d: tail at p%g, want p%g", tc.n, p, tc.wantP)
			continue
		}
		if p == 0 {
			if v != float64(tc.n) {
				t.Errorf("n=%d: below the ladder the tail is the max %d, got %g", tc.n, tc.n, v)
			}
			continue
		}
		// Samples are 1..n, so at least 10 must exceed the value.
		if beyond := float64(tc.n) - v; beyond < minBeyond-1 {
			t.Errorf("n=%d: p%g = %g leaves %g samples beyond", tc.n, p, v, beyond)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %g", m)
	}
	if q := quantileSorted([]float64{0, 10}, 0.9); math.Abs(q-9) > 1e-12 {
		t.Errorf("interpolated p90 = %g", q)
	}
}
