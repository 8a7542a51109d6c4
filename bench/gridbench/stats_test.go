package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	// 1000 samples 1..1000: nearest-rank p99 is the 990th value, with
	// exactly 10 samples beyond it.
	p99, err := percentile(seq(1000), 99)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p99, err)
	}
	p95, err := percentile(seq(500), 95)
	if err != nil || p95 != 475 {
		t.Fatalf("p95 of 1..500 = %v, %v; want 475", p95, err)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// 999 samples leave only 9 beyond the p99 rank.
	if _, err := percentile(seq(999), 99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errFewSamples", err)
	}
	if _, err := percentile(seq(19), 50); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of 19 samples: err = %v, want errFewSamples", err)
	}
	if _, err := percentile(nil, 50); !errors.Is(err, errFewSamples) {
		t.Fatalf("p50 of nothing: err = %v, want errFewSamples", err)
	}
	if _, err := percentile(seq(100), 100); err == nil {
		t.Fatal("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 10, 100})
	if err != nil || math.Abs(g-10) > 1e-12 {
		t.Fatalf("geomean(1, 10, 100) = %v, %v; want 10", g, err)
	}
	g, err = geomean([]float64{2, 8})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2, 8) = %v, %v; want 4", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", c.xs, q1, q2, q3, err, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value accepted")
	}
}
