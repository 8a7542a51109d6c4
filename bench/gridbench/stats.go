package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer, the "percentile" is just one of the slowest few samples.
const minBeyond = 10

var errFewSamples = errors.New("too few samples for this percentile")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs. It
// refuses (errFewSamples) unless at least minBeyond samples lie above the
// chosen rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples: %w", p, n, errFewSamples)
	}
	return sorted(xs)[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("geometric mean of no values")
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geometric mean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a Python check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles of %d values", ld)
	}
	d := sorted(xs)
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2], nil
}
