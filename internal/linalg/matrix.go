// Package linalg provides the dense linear algebra the power-system
// substrates still use: a row-major matrix with products (grid's dense
// B and H builders) and the partial-pivot LU behind grid.FactorizeB on
// systems below its sparse threshold. The sparse counterpart, which every
// larger system and every state estimate uses, lives in linalg/sparse.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension indicates incompatible operand dimensions.
var ErrDimension = errors.New("linalg: dimension mismatch")

// ErrSingular indicates a (numerically) singular matrix was passed to a
// factorization or solve routine.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.cols != other.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrDimension, m.rows, m.cols, other.rows, other.cols)
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			rowK := other.data[k*other.cols : (k+1)*other.cols]
			outRow := out.data[i*out.cols : (i+1)*out.cols]
			for j, b := range rowK {
				outRow[j] += a * b
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d * vector(%d)", ErrDimension, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// MaxAbs returns the largest absolute element value, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
