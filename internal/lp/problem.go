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
// averages about a third nonzero. The kernel skips the work that cannot
// change a value:
//
//   - the sparse-row pivot collects the scaled pivot row's nonzero columns
//     once and eliminates only those, in only the rows whose pivot-column
//     entry is nonzero;
//   - pricing computes reduced costs only for the candidate columns that
//     can enter (nonbasic and not fixed, free ones included), each with the
//     same expression and row order as a full pricing, and the entering
//     rule walks them in ascending column order, so Dantzig's and Bland's
//     rules pick what a full scan would.
//
// Bit-identity contract: every status, pivot count, objective and nonzero
// solution value is the IEEE-754 result of the full dense kernel. A skipped
// update is x - f*0, which is x itself, except that a zero x may come out
// with the other sign; a zero's sign reaches only tolerance comparisons and
// other zeros, never a nonzero value or a pivot choice. The golden test in
// internal/opf pins the result bits, zero signs included, on a fixed corpus
// of OPF solves.
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

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.lower) }

// AddConstraint adds the row sum(terms) sense rhs. Terms referencing unknown
// variables cause an error at Solve time.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) {
	ts := make([]Term, len(terms))
	copy(ts, terms)
	p.cons = append(p.cons, constraint{terms: ts, sense: sense, rhs: rhs})
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // values of the structural variables
	Pivots    int       // simplex basis changes performed by this solve
	Warmed    bool      // true when the solve reused a warm basis
}

// Value returns the solved value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }
