package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at. The
// steps are wide, so a run that completes somewhat more or fewer
// operations than another still reports the same percentile.
var tailLadder = []float64{50, 75, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tail reports the highest ladder percentile that has at least
// minBeyond samples beyond it, with that percentile's value. With fewer
// than minBeyond samples beyond even the median it returns p=0 and the
// maximum, so the caller can still print the sample count honestly.
func tail(samples []float64) (p, v float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := sorted(samples)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		q := tailLadder[i]
		// (100-q) keeps one decimal exact enough; the epsilon absorbs
		// the rest of the rounding.
		if float64(n)*(100-q)/100 >= minBeyond-1e-9 {
			return q, quantileSorted(s, q/100)
		}
	}
	return 0, s[n-1]
}

// median returns the 50th percentile (0 for no samples).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return quantileSorted(sorted(samples), 0.5)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates linearly between closest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
