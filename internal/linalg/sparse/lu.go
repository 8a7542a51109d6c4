package sparse

import (
	"fmt"
	"math"
)

// LU is a sparse LU factorization P*A*Q = L*U with row permutation P from
// partial pivoting and column permutation Q from a fill-reducing ordering.
// L is unit lower triangular, U upper triangular, both stored column-wise.
type LU struct {
	n int

	// L and U columns in factor (pivotal) order. L's diagonal (1.0) is not
	// stored; U's diagonal is the last entry of each column.
	l, u *CSC

	// pinv maps original row -> pivotal row: row i of A is row pinv[i] of
	// P*A. perm is the inverse (pivotal -> original).
	pinv, perm []int

	// q maps pivotal column k -> original column q[k].
	q []int
}

// Factorize computes the LU factorization of a square CSC matrix under a
// minimum-degree column ordering with partial pivoting. It returns
// ErrSingular when no acceptable pivot exists for some column.
func Factorize(a *CSC) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: factorize %dx%d", ErrDimension, a.rows, a.cols)
	}
	return FactorizeOrdered(a, MinDegreeOrder(a))
}

// FactorizeNatural factorizes without reordering columns (natural order);
// useful for measuring the fill reduction the ordering buys.
func FactorizeNatural(a *CSC) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: factorize %dx%d", ErrDimension, a.rows, a.cols)
	}
	q := make([]int, a.cols)
	for i := range q {
		q[i] = i
	}
	return FactorizeOrdered(a, q)
}

// FactorizeOrdered computes the factorization with the given column
// ordering q (new column k = original column q[k]). The implementation is
// the left-looking Gilbert–Peierls algorithm: each column of L and U is
// obtained by a sparse triangular solve L x = a_q[k] whose nonzero pattern
// is found by depth-first search over the graph of L, giving total work
// proportional to arithmetic operations performed.
func FactorizeOrdered(a *CSC, q []int) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: factorize %dx%d", ErrDimension, a.rows, a.cols)
	}
	n := a.cols
	if len(q) != n {
		return nil, fmt.Errorf("%w: ordering length %d for n=%d", ErrDimension, len(q), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty matrix", ErrSingular)
	}
	aq := permuteCols(a, q)

	// Pivot tolerance relative to the largest entry, matching the dense LU.
	maxAbs := 0.0
	for _, v := range a.values {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := 1e-12 * maxAbs
	if tol == 0 {
		tol = 1e-300
	}

	f := &LU{
		n:    n,
		l:    &CSC{rows: n, cols: n, colPtr: make([]int, n+1)},
		u:    &CSC{rows: n, cols: n, colPtr: make([]int, n+1)},
		pinv: make([]int, n),
		perm: make([]int, n),
		q:    append([]int(nil), q...),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}

	x := make([]float64, n)      // dense scatter workspace
	pattern := make([]int, 0, n) // nonzero pattern of the current solve
	stack := make([]int, 0, n)   // DFS stack (vertex)
	pstack := make([]int, 0, n)  // DFS stack (position within L column)
	visited := make([]int, n)    // visit stamp per original row
	for i := range visited {
		visited[i] = -1
	}

	for k := 0; k < n; k++ {
		// --- Symbolic: pattern of x solving L x = a_k via DFS on L's graph.
		// Vertices are original row indices; row i is "pivotal" (has an L
		// column) when pinv[i] >= 0, and its children are the off-diagonal
		// rows of L column pinv[i].
		pattern = pattern[:0]
		for p := aq.colPtr[k]; p < aq.colPtr[k+1]; p++ {
			root := aq.rowIdx[p]
			if visited[root] == k {
				continue
			}
			// Iterative DFS with postorder push so pattern ends up topological.
			stack = append(stack[:0], root)
			pstack = append(pstack[:0], 0)
			visited[root] = k
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				col := f.pinv[v]
				descended := false
				if col >= 0 {
					lo, hi := f.l.colPtr[col], f.l.colPtr[col+1]
					for pp := lo + pstack[len(pstack)-1]; pp < hi; pp++ {
						child := f.l.rowIdx[pp]
						if visited[child] != k {
							pstack[len(pstack)-1] = pp - lo + 1
							visited[child] = k
							stack = append(stack, child)
							pstack = append(pstack, 0)
							descended = true
							break
						}
					}
				}
				if !descended {
					stack = stack[:len(stack)-1]
					pstack = pstack[:len(pstack)-1]
					pattern = append(pattern, v) // postorder: dependencies first in reverse
				}
			}
		}

		// --- Numeric: scatter a_k, then eliminate in reverse postorder
		// (topological order of dependencies).
		for p := aq.colPtr[k]; p < aq.colPtr[k+1]; p++ {
			x[aq.rowIdx[p]] = aq.values[p]
		}
		for t := len(pattern) - 1; t >= 0; t-- {
			v := pattern[t]
			col := f.pinv[v]
			if col < 0 {
				continue
			}
			xv := x[v]
			if xv == 0 {
				continue
			}
			for pp := f.l.colPtr[col]; pp < f.l.colPtr[col+1]; pp++ {
				x[f.l.rowIdx[pp]] -= f.l.values[pp] * xv
			}
		}

		// --- Partial pivoting: among non-pivotal rows in the pattern pick
		// the largest |x|; prefer the diagonal when it is within a factor of
		// the best (threshold pivoting keeps fill down without hurting
		// stability on diagonally dominant B matrices).
		pivRow, pivAbs := -1, 0.0
		diagRow := q[k]
		for _, v := range pattern {
			if f.pinv[v] >= 0 {
				continue
			}
			if av := math.Abs(x[v]); av > pivAbs {
				pivRow, pivAbs = v, av
			}
		}
		if pivRow < 0 || pivAbs <= tol {
			// Clean workspace before failing.
			for _, v := range pattern {
				x[v] = 0
			}
			return nil, fmt.Errorf("%w: no pivot in column %d", ErrSingular, k)
		}
		if diagRow != pivRow && f.pinv[diagRow] < 0 && visited[diagRow] == k {
			if av := math.Abs(x[diagRow]); av >= 0.1*pivAbs && av > tol {
				pivRow, pivAbs = diagRow, av
			}
		}
		pivVal := x[pivRow]
		f.pinv[pivRow] = k
		f.perm[k] = pivRow

		// --- Gather into U (pivotal rows) and L (non-pivotal rows, scaled).
		for _, v := range pattern {
			xv := x[v]
			x[v] = 0
			if xv == 0 {
				continue
			}
			if pi := f.pinv[v]; pi >= 0 && v != pivRow {
				f.u.rowIdx = append(f.u.rowIdx, pi)
				f.u.values = append(f.u.values, xv)
			} else if v != pivRow {
				f.l.rowIdx = append(f.l.rowIdx, v)
				f.l.values = append(f.l.values, xv/pivVal)
			}
		}
		// U's diagonal entry last within the column.
		f.u.rowIdx = append(f.u.rowIdx, k)
		f.u.values = append(f.u.values, pivVal)
		f.u.colPtr[k+1] = len(f.u.values)
		f.l.colPtr[k+1] = len(f.l.values)
	}
	return f, nil
}

// Order returns the dimension of the factorized matrix.
func (f *LU) Order() int { return f.n }

// NNZFactors returns the stored nonzero counts of L (excluding the unit
// diagonal) and U (including the diagonal).
func (f *LU) NNZFactors() (nnzL, nnzU int) { return f.l.NNZ(), f.u.NNZ() }

// Solve solves A x = b. The input is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, make([]float64, f.n), b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into x, using work as scratch, and allocates
// nothing. b is not modified and may alias x; work must alias neither.
// All three have length Order().
func (f *LU) SolveInto(x, work, b []float64) error {
	if len(b) != f.n || len(x) != f.n || len(work) != f.n {
		return fmt.Errorf("%w: solve with rhs length %d, x length %d, work length %d, n=%d",
			ErrDimension, len(b), len(x), len(work), f.n)
	}
	// y = L^-1 P b, in pivotal row coordinates.
	y := work
	for i, bi := range b {
		y[f.pinv[i]] = bi
	}
	// Forward substitution: L is unit lower triangular in pivotal order, its
	// off-diagonal rows stored as original indices.
	for k := 0; k < f.n; k++ {
		yk := y[k]
		if yk == 0 {
			continue
		}
		for p := f.l.colPtr[k]; p < f.l.colPtr[k+1]; p++ {
			y[f.pinv[f.l.rowIdx[p]]] -= f.l.values[p] * yk
		}
	}
	// Backward substitution with U (diagonal stored last per column).
	for k := f.n - 1; k >= 0; k-- {
		lo, hi := f.u.colPtr[k], f.u.colPtr[k+1]
		diag := f.u.values[hi-1]
		yk := y[k] / diag
		y[k] = yk
		if yk != 0 {
			for p := lo; p < hi-1; p++ {
				y[f.u.rowIdx[p]] -= f.u.values[p] * yk
			}
		}
	}
	// Undo the column permutation: x[q[k]] = y[k].
	for k := 0; k < f.n; k++ {
		x[f.q[k]] = y[k]
	}
	return nil
}
