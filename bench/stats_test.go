package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

// TestQuantileMatchesBruteForce checks the nearest-rank quantile against
// its definition: the smallest sample with at least q·n samples at or
// below it.
func TestQuantileMatchesBruteForce(t *testing.T) {
	r := newRNG(42)
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.next() % 50) // ties included
		}
		slices.Sort(xs)
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			want := xs[n-1]
			for _, x := range xs {
				atOrBelow := 0
				for _, y := range xs {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := quantile(xs, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d q=%v: quantile %v, brute force %v", n, q, got, want)
			}
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, // rank 990: 10 beyond
		{999, 0.95},  // p99's rank 990 leaves 9 beyond
		{10000, 0.999},
		{200, 0.95},
		{100, 0.9},
		{40, 0.75},
		{39, 0.5},
		{1, 0.5},
	} {
		if got := tailQ(c.n, 0.999); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQ(c.n, 0.999); q > 0.5 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, q*100, beyond(c.n, q))
		}
	}
	if got := tailQ(10000, 0.99); got != 0.99 {
		t.Errorf("tailQ caps at the wanted percentile: got %v", got)
	}
}

func TestDistInMilliseconds(t *testing.T) {
	d := newDist([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if d.q(0.5) != float64(2) || d.q(1) != float64(3) {
		t.Fatalf("dist = %v", d)
	}
	if (dist{}).q(0.5) != 0 {
		t.Fatal("an empty dist reads 0")
	}
}
