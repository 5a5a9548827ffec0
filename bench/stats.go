package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the exact nearest-rank q-quantile of raw samples: the
// smallest sample with at least q·n samples at or below it. xs must be
// sorted ascending and non-empty.
func quantile(xs []float64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(xs))))
	if r < 1 {
		r = 1
	}
	return xs[r-1]
}

// beyond counts the samples strictly above the nearest-rank q-quantile's
// rank, the support a tail percentile has.
func beyond(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return n - r
}

// tailQ is the highest of the candidate percentiles that has at least
// ten samples beyond it among n, or the median when none has.
func tailQ(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if q <= want && beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// dist is a sorted set of durations in milliseconds.
type dist []float64

func newDist(ds []time.Duration) dist {
	xs := make(dist, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(xs)
	return xs
}

func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return quantile(d, q)
}
