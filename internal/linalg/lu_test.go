package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	f, err := Factorize(a)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factorize(a); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestSolveRHSMismatch(t *testing.T) {
	f, err := Factorize(fromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}))
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if _, err := f.Solve([]float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

// Property: for random well-conditioned A and random x, Solve(A, A*x)
// recovers x.
func TestSolveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, n)
		// Make diagonally dominant so A is comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(x)
		if err != nil {
			return false
		}
		f, err := Factorize(a)
		if err != nil {
			return false
		}
		got, err := f.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) >= 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
