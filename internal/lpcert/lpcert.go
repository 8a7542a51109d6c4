// Package lpcert checks a claimed optimal basis of a linear program in exact
// rational arithmetic and returns the exact optimum. It is the checking half
// of the QSopt_ex approach (Applegate, Cook, Dash and Espinoza, "Exact
// solutions to linear programming problems", Operations Research Letters
// 35, 2007): a floating-point simplex proposes the basis, and this package
// confirms it for the rational data without trusting any float.
//
// The LP is
//
//	min  c'x
//	s.t. a_i'x {<=,=,>=} b_i   for every row i
//	     l <= x <= u           (a nil bound is infinite)
//
// and a basis names one column per row. Columns are numbered structural
// first, then one slack per inequality row in row order (coefficient +1 in
// its row, bounds [0, +Inf) for <= and (-Inf, 0] for >=), then one
// artificial per row (coefficient +1, fixed at 0). Every nonbasic column
// sits at its upper bound when the basis says so, otherwise at its lower
// bound, or at 0 when it has neither.
//
// Check solves B x_B = b - N x_N and B'y = c_B by exact sparse elimination
// (Markowitz pivot order, smallest pivot first among ties; the back
// substitution runs on integers, see solveSystem), then substitutes both
// solutions back into the original data, so an accepted basis never rests
// on the elimination being right. It accepts when
//
//   - every basic value is within its bounds and every basic artificial
//     is exactly 0 (primal feasibility), and
//   - every nonbasic column that is not fixed has a reduced cost
//     d_j = c_j - a_j'y of the sign its bound allows: d >= 0 at a lower
//     bound, d <= 0 at an upper bound, d = 0 when free (dual feasibility).
//
// The two together with complementary slackness prove c'x optimal by weak
// duality. The package shares no code with internal/lp.
package lpcert

import (
	"context"
	"errors"
	"fmt"
	"math/big"
)

// Sense is the relational operator of a row.
type Sense int8

// Row senses.
const (
	LE Sense = iota + 1 // a'x <= b
	EQ                  // a'x == b
	GE                  // a'x >= b
)

// Row is the constraint sum_k Coefs[k]*x[Cols[k]] Sense RHS. A column may
// appear more than once; its coefficients add.
type Row struct {
	Cols  []int
	Coefs []*big.Rat
	Sense Sense
	RHS   *big.Rat
}

// LP is a linear program over len(Cost) structural columns; Lower and Upper
// have the same length, with nil for an infinite bound.
type LP struct {
	Lower, Upper, Cost []*big.Rat
	Rows               []Row
}

// Basis is a claimed optimal basis of an LP.
type Basis struct {
	Basic   []int            // the column basic in each row
	AtUpper func(j int) bool // whether nonbasic column j sits at its upper bound
}

// ErrRejected is wrapped by every error that refuses a basis; the message
// names the condition that failed.
var ErrRejected = errors.New("lpcert: basis rejected")

func reject(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRejected, fmt.Sprintf(format, args...))
}

// cell is one nonzero of a sparse row or column.
type cell struct {
	idx int
	v   *big.Rat
}

// system is an LP in the column numbering of the package comment.
type system struct {
	lp       *LP
	nStruct  int
	slackRow []int    // row of each slack column
	cols     [][]cell // structural columns, duplicate entries merged
}

func newSystem(lp *LP) (*system, error) {
	n := len(lp.Cost)
	if len(lp.Lower) != n || len(lp.Upper) != n {
		return nil, reject("%d costs but %d lower and %d upper bounds", n, len(lp.Lower), len(lp.Upper))
	}
	s := &system{lp: lp, nStruct: n, cols: make([][]cell, n)}
	for i, r := range lp.Rows {
		if len(r.Cols) != len(r.Coefs) {
			return nil, reject("row %d has %d columns and %d coefficients", i, len(r.Cols), len(r.Coefs))
		}
		switch r.Sense {
		case EQ:
		case LE, GE:
			s.slackRow = append(s.slackRow, i)
		default:
			return nil, reject("row %d has unknown sense %d", i, r.Sense)
		}
		for k, j := range r.Cols {
			if j < 0 || j >= n {
				return nil, reject("row %d references column %d of %d", i, j, n)
			}
			col := s.cols[j]
			if last := len(col) - 1; last >= 0 && col[last].idx == i {
				col[last].v.Add(col[last].v, r.Coefs[k])
				continue
			}
			s.cols[j] = append(col, cell{i, new(big.Rat).Set(r.Coefs[k])})
		}
	}
	for j, col := range s.cols {
		kept := col[:0]
		for _, c := range col {
			if c.v.Sign() != 0 {
				kept = append(kept, c)
			}
		}
		s.cols[j] = kept
	}
	return s, nil
}

// numCols is the number of columns: structural, slack and artificial.
func (s *system) numCols() int { return s.nStruct + len(s.slackRow) + len(s.lp.Rows) }

// column returns column j's nonzeros; slack and artificial columns are unit.
func (s *system) column(j int) []cell {
	switch {
	case j < s.nStruct:
		return s.cols[j]
	case j < s.nStruct+len(s.slackRow):
		return []cell{{s.slackRow[j-s.nStruct], big.NewRat(1, 1)}}
	default:
		return []cell{{j - s.nStruct - len(s.slackRow), big.NewRat(1, 1)}}
	}
}

// bounds returns column j's bounds (nil = infinite).
func (s *system) bounds(j int) (lo, hi *big.Rat) {
	switch {
	case j < s.nStruct:
		return s.lp.Lower[j], s.lp.Upper[j]
	case j < s.nStruct+len(s.slackRow):
		if s.lp.Rows[s.slackRow[j-s.nStruct]].Sense == LE {
			return new(big.Rat), nil
		}
		return nil, new(big.Rat)
	default:
		return new(big.Rat), new(big.Rat)
	}
}

// cost returns column j's objective coefficient.
func (s *system) cost(j int) *big.Rat {
	if j < s.nStruct {
		return s.lp.Cost[j]
	}
	return new(big.Rat)
}

func (s *system) isArtificial(j int) bool { return j >= s.nStruct+len(s.slackRow) }

// Check confirms that b is an optimal basis of lp and returns the exact
// optimal objective c'x. A refused basis yields an error wrapping
// ErrRejected; a done ctx stops the check with ctx.Err().
func Check(ctx context.Context, lp *LP, b Basis) (*big.Rat, error) {
	s, err := newSystem(lp)
	if err != nil {
		return nil, err
	}
	m, n := len(lp.Rows), s.numCols()
	if len(b.Basic) != m {
		return nil, reject("basis has %d columns for %d rows", len(b.Basic), m)
	}
	pos := make([]int, n) // basis position + 1 of each column; 0 = nonbasic
	for k, j := range b.Basic {
		if j < 0 || j >= n {
			return nil, reject("basic column %d out of range [0, %d)", j, n)
		}
		if pos[j] != 0 {
			return nil, reject("column %d is basic in rows %d and %d", j, pos[j]-1, k)
		}
		pos[j] = k + 1
	}

	// Nonbasic values, and r = b - N x_N.
	x := make([]*big.Rat, n)
	r := make([]*big.Rat, m)
	for i, row := range lp.Rows {
		r[i] = new(big.Rat).Set(row.RHS)
	}
	tmp := new(big.Rat)
	for j := 0; j < n; j++ {
		if pos[j] != 0 {
			continue
		}
		lo, hi := s.bounds(j)
		switch {
		case b.AtUpper(j):
			if hi == nil {
				return nil, reject("nonbasic column %d is at an infinite upper bound", j)
			}
			x[j] = hi
		case lo != nil:
			x[j] = lo
		case hi == nil:
			x[j] = new(big.Rat) // free, at 0
		default:
			return nil, reject("nonbasic column %d is at an infinite lower bound", j)
		}
		if x[j].Sign() == 0 {
			continue
		}
		for _, c := range s.column(j) {
			r[c.idx].Sub(r[c.idx], tmp.Mul(c.v, x[j]))
		}
	}

	// x_B = X/D from B x_B = r, and y = Y/Dy from B'y = c_B; the
	// eliminations consume the rows they are given.
	cB := make([]*big.Rat, m)
	for k, j := range b.Basic {
		cB[k] = s.cost(j)
	}
	xB, d, err := solveSystem(ctx, basisRows(s, b.Basic), r)
	if err != nil {
		return nil, err
	}
	y, dy, err := solveSystem(ctx, basisCols(s, b.Basic), cB)
	if err != nil {
		return nil, err
	}

	// Substitute both solutions into the original data: B x_B = r and
	// B'y = c_B must hold exactly whatever the eliminations did.
	for i, row := range basisRows(s, b.Basic) {
		if cmpScaled(row, xB, r[i], d) != 0 {
			return nil, reject("B x_B differs from b - N x_N in row %d", i)
		}
	}
	for k, j := range b.Basic {
		if cmpScaled(s.column(j), y, cB[k], dy) != 0 {
			return nil, reject("B'y differs from c_B at basic column %d", j)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Primal feasibility of the basic values.
	unit := big.NewRat(1, 1)
	for k, j := range b.Basic {
		xk := []cell{{k, unit}}
		lo, hi := s.bounds(j)
		switch {
		case s.isArtificial(j) && xB[k].Sign() != 0:
			return nil, reject("basic artificial of row %d is %s, not 0", j-s.nStruct-len(s.slackRow), ratio(xB[k], d))
		case lo != nil && cmpScaled(xk, xB, lo, d) < 0:
			return nil, reject("basic column %d is %s, below its lower bound %s", j, ratio(xB[k], d), lo.RatString())
		case hi != nil && cmpScaled(xk, xB, hi, d) > 0:
			return nil, reject("basic column %d is %s, above its upper bound %s", j, ratio(xB[k], d), hi.RatString())
		}
	}

	// Dual feasibility: reduced-cost signs by nonbasic status; the sign of
	// d_j = c_j - a_j'y is minus that of a_j'Y - c_j Dy.
	for j := 0; j < n; j++ {
		if pos[j] != 0 {
			continue
		}
		lo, hi := s.bounds(j)
		if lo != nil && hi != nil && lo.Cmp(hi) == 0 {
			continue // fixed: either sign is optimal
		}
		sign := -cmpScaled(s.column(j), y, s.cost(j), dy)
		switch {
		case b.AtUpper(j):
			if sign > 0 {
				return nil, reject("column %d at its upper bound has reduced cost %s > 0", j, reducedCost(s, j, y, dy))
			}
		case lo != nil:
			if sign < 0 {
				return nil, reject("column %d at its lower bound has reduced cost %s < 0", j, reducedCost(s, j, y, dy))
			}
		default:
			if sign != 0 {
				return nil, reject("free nonbasic column %d has reduced cost %s, not 0", j, reducedCost(s, j, y, dy))
			}
		}
	}

	// c'x: the nonbasic part in rationals, the basic part over D.
	obj := new(big.Rat)
	var basic []cell
	for j := 0; j < s.nStruct; j++ {
		c := lp.Cost[j]
		switch {
		case c.Sign() == 0:
		case pos[j] != 0:
			basic = append(basic, cell{pos[j] - 1, c})
		default:
			obj.Add(obj, new(big.Rat).Mul(c, x[j]))
		}
	}
	l := big.NewInt(1)
	for _, c := range basic {
		lcm(l, c.v.Denom())
	}
	sum := new(big.Int)
	for _, c := range basic {
		t := scaled(l, c.v)
		sum.Add(sum, t.Mul(t, xB[c.idx]))
	}
	return obj.Add(obj, new(big.Rat).SetFrac(sum, l.Mul(l, d))), nil
}

// basisRows returns B's rows, cells indexed by basis position.
func basisRows(s *system, basic []int) [][]cell {
	rows := make([][]cell, len(s.lp.Rows))
	for k, j := range basic {
		for _, c := range s.column(j) {
			rows[c.idx] = append(rows[c.idx], cell{k, new(big.Rat).Set(c.v)})
		}
	}
	return rows
}

// basisCols returns B's columns as the rows of B', cells indexed by row.
func basisCols(s *system, basic []int) [][]cell {
	cols := make([][]cell, len(basic))
	for k, j := range basic {
		for _, c := range s.column(j) {
			cols[k] = append(cols[k], cell{c.idx, new(big.Rat).Set(c.v)})
		}
	}
	return cols
}

// ratio formats X/D for an error message.
func ratio(x, d *big.Int) string { return new(big.Rat).SetFrac(x, d).RatString() }

// reducedCost formats c_j - a_j'Y/Dy for an error message.
func reducedCost(s *system, j int, y []*big.Int, dy *big.Int) string {
	d := new(big.Rat).Set(s.cost(j))
	for _, c := range s.column(j) {
		d.Sub(d, new(big.Rat).Mul(c.v, new(big.Rat).SetFrac(y[c.idx], dy)))
	}
	return d.RatString()
}
