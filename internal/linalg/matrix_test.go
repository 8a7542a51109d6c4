package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	id := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	got, err := a.Mul(id)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != a.At(i, j) {
				t.Fatalf("A*I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if got.At(i, j) != want[i][j] {
				t.Errorf("(%d,%d) = %v, want %v", i, j, got.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", at.At(2, 1))
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		att := a.Transpose().Transpose()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if a.At(i, j) != att.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("got %v, want [3 7]", got)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// Property: (A*B)^T == B^T * A^T.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, p := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, k, p)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		lhs := ab.Transpose()
		rhs, err := b.Transpose().Mul(a.Transpose())
		if err != nil {
			return false
		}
		for i := 0; i < p; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(lhs.At(i, j)-rhs.At(i, j)) >= 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
