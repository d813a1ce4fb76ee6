package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.5, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(sample, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
}

// The tail percentile a workload fixes must keep about ten samples beyond
// it; samplesBeyond is what the output states next to the percentile.
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {24000, 99, 240}, {7500, 95, 375}, {150, 90, 15}, {30, 70, 9}, {10, 99, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samples beyond p%g of %d = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the pipeline uses; the expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 11, 12, 13}, 10.25, 12.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..5) = %g, want (4.5-1.5)/3 = 1", got)
	}
}
