package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P*A = L*U, where L is unit lower triangular and U is upper triangular.
// The factors are stored compactly in lu; perm records the row permutation.
type LU struct {
	lu   *Matrix
	perm []int
	n    int
}

// Factorize computes the LU factorization of the square matrix a with
// partial pivoting. It returns ErrSingular when a pivot is numerically zero.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: LU of %dx%d matrix", ErrDimension, a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	tol := 1e-12 * math.Max(1, lu.MaxAbs())
	for k := 0; k < n; k++ {
		// Partial pivot: largest |value| in column k at or below row k.
		pivot := k
		best := math.Abs(lu.At(k, k))
		for r := k + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, k)); v > best {
				best = v
				pivot = r
			}
		}
		if best <= tol {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if pivot != k {
			lu.swapRows(k, pivot)
			perm[k], perm[pivot] = perm[pivot], perm[k]
		}
		pv := lu.At(k, k)
		for r := k + 1; r < n; r++ {
			f := lu.At(r, k) / pv
			lu.Set(r, k, f)
			if f == 0 {
				continue
			}
			for c := k + 1; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-f*lu.At(k, c))
			}
		}
	}
	return &LU{lu: lu, perm: perm, n: n}, nil
}

// Solve solves A*x = b for x using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrDimension, len(b), f.n)
	}
	x := make([]float64, f.n)
	// Apply permutation: x = P*b.
	for i := 0; i < f.n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution with unit lower-triangular L.
	for i := 1; i < f.n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Backward substitution with U.
	for i := f.n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x, nil
}
