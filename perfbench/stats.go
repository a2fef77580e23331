package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for no samples. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[max(r, 1)-1]
}

// median is the midpoint of xs (the mean of the middle two for an even
// count), or 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), so that the
// steadiness report reads as an external check of it would. xs is sorted
// in place; it needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	m := len(xs) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// lowerQuartile is the first quartile of xs. Times taken over a run are
// only ever lengthened by other tenants of a shared machine, so the
// shorter ones track the program's own speed. xs is sorted in place.
func lowerQuartile(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	q1, _ := quartiles(xs)
	return q1
}

// upperQuartile is the third quartile of xs. A slice's packet rate is only
// ever lowered by other tenants of a shared machine, so the faster slices
// track the program's own speed. xs is sorted in place.
func upperQuartile(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	_, q3 := quartiles(xs)
	return q3
}

// calibrate times a fixed integer loop and returns its speed in millions
// of iterations per second (best of five). It is printed with each run so
// that a reader can tell a slow machine phase from a slow program; it is
// not a metric.
func calibrate() float64 {
	const iters = 1 << 23
	best := math.MaxFloat64
	var sink uint64
	for rep := 0; rep < 5; rep++ {
		x := uint64(rep) + 0x9E3779B97F4A7C15
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xBF58476D1CE4E5B9
		}
		best = min(best, float64(time.Since(t0)))
		sink += x
	}
	calibSink = sink
	return iters / best * 1e3
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64
