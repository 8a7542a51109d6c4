package opf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"

	"gridattack/internal/grid"
	"gridattack/internal/lp"
	"gridattack/internal/lpcert"
	"gridattack/internal/smt"
)

// ErrNotCertified reports that the exact model could not certify the OPF
// optimum: the float LP was not Optimal (infeasible included), the builder
// rejected an isolated bus carrying load, or the exact check refused the
// float basis. The caller falls back to the SMT feasibility model, which
// decides every such case.
var ErrNotCertified = errors.New("opf: optimum not certified")

// ExactModel answers the OPF feasibility model's cost queries (Eqs. 37-38)
// from an exact optimality certificate instead of an SMT search. It solves
// the angle LP in floating point and has lpcert confirm the final basis for
// the rational LP whose every coefficient, bound, right-hand side and cost
// is smt.RatFromFloat of the float one. Those are exactly the rationals of
// the FeasibilityModel on the same inputs (RatFromFloat(-x) is
// -RatFromFloat(x), and its reference-angle, unmapped-flow and
// total-balance rows change nothing), so CostBelow gives the answer
// CheckCostBelow would. Like the SMT model, and unlike Solve, it applies no
// connectivity gate.
type ExactModel struct {
	opt   *big.Rat // exact minimum of sum(beta_j * Pg_j)
	alpha float64  // total fixed cost, summed as NewFeasibilityModelShared does
}

// NewExactModel certifies the minimum-cost dispatch of grid g under mapped
// topology t and the given loads (nil = the grid's own loads). It returns an
// error wrapping ErrNotCertified when no certificate is confirmed, and one
// wrapping smt.ErrCanceled when ctx is done before the check finishes.
func NewExactModel(ctx context.Context, g *grid.Grid, t grid.Topology, loads []float64) (*ExactModel, error) {
	loads, err := checkSolveInputs(g, loads)
	if err != nil {
		return nil, err
	}
	p, _, err := buildAngleLP(g, t, loads)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotCertified, err)
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotCertified, err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("%w: float LP %v", ErrNotCertified, sol.Status)
	}
	opt, err := lpcert.Check(ctx, ExactLP(p), lpcert.Basis{Basic: sol.Basis, AtUpper: sol.AtUpper})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("opf: exact check stopped: %w: %w", smt.ErrCanceled, ctx.Err())
		}
		return nil, fmt.Errorf("%w: %w", ErrNotCertified, err)
	}
	var alpha float64
	for _, gen := range g.Generators {
		alpha += gen.Alpha
	}
	return &ExactModel{opt: opt, alpha: alpha}, nil
}

// CostBelow reports whether some dispatch serves the loads with total cost
// <= costCap: the exact optimum against RatFromFloat(costCap - alpha), the
// cap FeasibilityModel.CheckCostBelow asserts. Caps may come in any order.
func (m *ExactModel) CostBelow(costCap float64) bool {
	return m.opt.Cmp(smt.RatFromFloat(costCap-m.alpha)) <= 0
}

// Optimum returns the exact minimum of the variable cost sum(beta_j*Pg_j);
// the fixed costs are not included.
func (m *ExactModel) Optimum() *big.Rat { return new(big.Rat).Set(m.opt) }

// AngleLP returns the angle-formulation OPF linear program that Solve and
// NewExactModel solve for grid g under topology t and the given loads (nil
// = the grid's own loads).
func AngleLP(g *grid.Grid, t grid.Topology, loads []float64) (*lp.Problem, error) {
	loads, err := checkSolveInputs(g, loads)
	if err != nil {
		return nil, err
	}
	p, _, err := buildAngleLP(g, t, loads)
	return p, err
}

// ExactLP is the rational mirror of p: every coefficient, finite bound,
// right-hand side and cost converted with smt.RatFromFloat, in p's row and
// column numbering.
func ExactLP(p *lp.Problem) *lpcert.LP {
	n := p.NumVariables()
	out := &lpcert.LP{
		Lower: make([]*big.Rat, n),
		Upper: make([]*big.Rat, n),
		Cost:  make([]*big.Rat, n),
		Rows:  make([]lpcert.Row, p.NumConstraints()),
	}
	for j := 0; j < n; j++ {
		lo, hi, c := p.Variable(j)
		if !math.IsInf(lo, 0) {
			out.Lower[j] = smt.RatFromFloat(lo)
		}
		if !math.IsInf(hi, 0) {
			out.Upper[j] = smt.RatFromFloat(hi)
		}
		out.Cost[j] = smt.RatFromFloat(c)
	}
	for i := range out.Rows {
		terms, sense, rhs := p.Constraint(i)
		row := lpcert.Row{
			Cols:  make([]int, len(terms)),
			Coefs: make([]*big.Rat, len(terms)),
			RHS:   smt.RatFromFloat(rhs),
		}
		for k, tm := range terms {
			row.Cols[k] = tm.Var
			row.Coefs[k] = smt.RatFromFloat(tm.Coeff)
		}
		switch sense {
		case lp.LE:
			row.Sense = lpcert.LE
		case lp.EQ:
			row.Sense = lpcert.EQ
		case lp.GE:
			row.Sense = lpcert.GE
		}
		out.Rows[i] = row
	}
	return out
}
