package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values, or 0 for none. It
// sums in sorted order, so the result does not depend on the input order
// down to the last bit.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows is how many consecutive slices a tail or rate statistic is
// taken over before its median is reported.
const windows = 9

// windowed splits xs, in measurement order, into consecutive slices and
// returns the median of f over them: a tail percentile or a rate that one
// slow stretch of the run cannot move alone.
func windowed(xs []float64, f func([]float64) float64) float64 {
	n := len(xs) / windows
	if n == 0 {
		return f(xs)
	}
	vals := make([]float64, windows)
	for i := range vals {
		vals[i] = f(xs[i*n : (i+1)*n])
	}
	return median(vals)
}
