package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics of the raw samples. It does not
// modify xs. An empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the q-quantile of xs, or, when fewer than ten samples
// lie beyond it, the highest quantile that has ten samples beyond it:
// a tail percentile resting on fewer samples is one outlier wide.
func tail(xs []float64, q float64) float64 {
	return quantile(xs, max(0.5, min(q, 1-10/float64(len(xs)))))
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
