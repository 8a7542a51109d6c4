// Package lp implements a dense two-phase primal simplex solver for linear
// programs with bounded variables:
//
//	min  c'x
//	s.t. a_i'x {<=,=,>=} b_i   for every constraint row i
//	     l <= x <= u           (entries may be +/-Inf)
//
// The solver is used by the OPF module to compute exact minimum-cost
// generation dispatches. Problem sizes in this repository are small (a few
// hundred variables and rows for the 118-bus system), so a dense tableau with
// Bland's anti-cycling fallback is simple, robust, and fast enough.
//
// The tableau is stored dense but is mostly zeros: a 118-bus OPF pivot row
// averages about a third nonzero. The kernel skips the arithmetic whose
// result is never read or cannot change a value:
//
//   - the sparse-row pivot collects the scaled pivot row's nonzeros, column
//     next to value, and eliminates only those (unrolled by four), in only
//     the rows whose pivot-column entry is nonzero;
//   - pricing is incremental. Each phase keeps every column's reduced cost;
//     its first pricing is full, a pivot re-prices only the columns where
//     the scaled pivot row is nonzero, and a bound flip re-prices nothing.
//     A re-priced d_j is c_j minus c_B(i)*a_ij over the basis rows in order,
//     skipping zero c_B(i): the full pricing's operations in the same
//     order. A column outside the pivot row's nonzeros keeps every tableau
//     entry, and the one term of its sum that changes is the pivot row's, a
//     product with a zero both before and after the pivot; so its d_j keeps
//     its nonzero bits, and only a zero's sign can differ. (The exception, a
//     subnormal entry that scaling rounds to zero, drops a term vanishingly
//     small beside costTol.) The leaving column is always re-priced, since
//     its pivot-row entry becomes 1/pivot. The entering rule reads d only
//     through |d_j| > costTol and, once that holds, its sign, and it walks
//     the columns that can enter (nonbasic and not fixed, free ones
//     included) in ascending order, so Dantzig's and Bland's rules pick what
//     a full pricing would;
//   - phase 2 leaves the artificial columns alone. Phase 1 pins them at 0,
//     and nothing reads their columns again: pricing skips fixed columns,
//     so an artificial never enters; the ratio test reads only the entering
//     column; the solution comes from the basic and nonbasic values, the
//     basis and the column statuses; and a basis certificate is Basis and
//     AtUpper. Phase 1 must keep them current, because artificials re-enter
//     the basis there.
//
// Bit-identity contract: every status, pivot count, objective, nonzero
// solution value and final basis is the IEEE-754 result of the full dense
// kernel. A skipped update is x - f*0, which is x itself, except that a
// zero x may come out with the other sign; a zero's sign reaches only
// tolerance comparisons and other zeros, never a nonzero value or a pivot
// choice. The golden test in internal/opf pins the result bits, zero signs
// included, and the final basis, on a fixed corpus of OPF solves and seeded
// random LPs that reach bound flips in both phases, free columns entering,
// artificials leaving in phase 2, and infeasible and unbounded outcomes.
package lp

import (
	"errors"
	"fmt"
)

// Sense is the relational operator of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // a'x <= b
	EQ                  // a'x == b
	GE                  // a'x >= b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrNotSolved indicates Solution accessors were used before a solve.
var ErrNotSolved = errors.New("lp: problem not solved")

// Term is one coefficient of a constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type constraint struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction.
type Problem struct {
	lower, upper []float64
	cost         []float64
	names        []string
	cons         []constraint
}

// NewProblem returns an empty linear program.
func NewProblem() *Problem {
	return &Problem{}
}

// AddVariable adds a decision variable with bounds [lo, hi] (either may be
// +/-Inf) and the given objective coefficient. It returns the variable index.
func (p *Problem) AddVariable(lo, hi, cost float64, name string) int {
	p.lower = append(p.lower, lo)
	p.upper = append(p.upper, hi)
	p.cost = append(p.cost, cost)
	p.names = append(p.names, name)
	return len(p.lower) - 1
}

// AddConstraint adds the row sum(terms) sense rhs. Terms referencing unknown
// variables cause an error at Solve time.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) {
	ts := make([]Term, len(terms))
	copy(ts, terms)
	p.cons = append(p.cons, constraint{terms: ts, sense: sense, rhs: rhs})
}

// NumVariables returns the number of decision variables.
func (p *Problem) NumVariables() int { return len(p.lower) }

// Variable returns variable j's bounds and objective coefficient.
func (p *Problem) Variable(j int) (lo, hi, cost float64) {
	return p.lower[j], p.upper[j], p.cost[j]
}

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Constraint returns row i as added; the terms slice must not be modified.
func (p *Problem) Constraint(i int) (terms []Term, sense Sense, rhs float64) {
	c := p.cons[i]
	return c.terms, c.sense, c.rhs
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // values of the structural variables
	Pivots    int       // simplex basis changes performed by this solve

	// Basis is the final basis of an Optimal solve: Basis[i] is the column
	// basic in row i. Columns are numbered structural first, then one slack
	// per inequality row (in row order; +1 in its row, [0, +Inf) for <= and
	// (-Inf, 0] for >=), then one artificial per row (fixed at 0 after
	// phase 1). A nonbasic column sits at its upper bound when AtUpper says
	// so, else at its lower bound, or at 0 when it has neither.
	Basis []int

	status []varStatus // the tableau's per-column status; nil unless Optimal
}

// Value returns the solved value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// AtUpper reports whether nonbasic column j of an Optimal solution sits at
// its upper bound.
func (s *Solution) AtUpper(j int) bool { return s.status[j] == statusAtUpper }
