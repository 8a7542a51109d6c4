package opf

import (
	"context"
	"fmt"
	"time"

	"gridattack/internal/grid"
	"gridattack/internal/smt"
)

// FeasibilityModel is a reusable OPF feasibility query: the topology, load,
// and capacity constraints (Eqs. 30-34) are encoded once, and successive cost
// caps (Eq. 35) are evaluated against the same solver, reusing its learned
// clauses and simplex tableau across queries. Each cap is asserted
// permanently, so caps must be non-increasing: each new cap only tightens the
// conjunction. Callers needing both a tight and a generous cap (the
// analyzer's Eq. 37 / Eq. 38 pair) therefore ask the generous one first.
type FeasibilityModel struct {
	s     *smt.Solver
	g     *grid.Grid
	vars  *Vars
	alpha float64 // total fixed generation cost (sum of alphas)

	lastCap float64
	hasCap  bool

	// Incremental is ignored: every cap is an assertion. It is read only by
	// bench/gridbench.
	Incremental bool

	// Parallelism is the portfolio width for each query; values <= 1 run the
	// plain sequential Check. The stable portfolio is used, so answers (and
	// the witnessing dispatch) are identical at every width.
	Parallelism int

	// MaxPivots bounds simplex pivots per query (0 = unlimited).
	MaxPivots int64
	// Certify makes every query verdict carry a checked certificate; like
	// the solver flag it can only be enabled, never disabled.
	Certify bool
}

// NewFeasibilityModel encodes the cap-independent OPF constraints for grid g
// under mapped topology t and the given loads (nil = the grid's own loads).
// maxConflicts and maxDuration bound each subsequent query (0 = unlimited).
func NewFeasibilityModel(g *grid.Grid, t grid.Topology, loads []float64, maxConflicts int64, maxDuration time.Duration) (*FeasibilityModel, error) {
	s := smt.NewSolver()
	s.MaxConflicts = maxConflicts
	s.MaxDuration = maxDuration
	vars, err := EncodeBase(s, g, t, loads)
	if err != nil {
		return nil, err
	}
	var alpha float64
	for _, gen := range g.Generators {
		alpha += gen.Alpha
	}
	return &FeasibilityModel{s: s, g: g, vars: vars, alpha: alpha}, nil
}

// CheckCostBelow reports whether some dispatch serves the loads with total
// cost <= costCap. Caps must be non-increasing across calls: a looser cap
// than a previous one is an error, because the earlier tighter assertion
// cannot be retracted.
func (m *FeasibilityModel) CheckCostBelow(ctx context.Context, costCap float64) (bool, error) {
	if m.hasCap && costCap > m.lastCap {
		return false, fmt.Errorf("opf: cost cap %g loosens previous cap %g (caps must be non-increasing)", costCap, m.lastCap)
	}
	if !m.hasCap || costCap < m.lastCap {
		cost := smt.NewLinExpr()
		for i, gen := range m.g.Generators {
			cost.AddFloat(gen.Beta, m.vars.Gen[i])
		}
		m.s.Assert(smt.AtomFloat(cost, smt.OpLE, costCap-m.alpha))
		m.lastCap, m.hasCap = costCap, true
	}
	m.s.MaxPivots = m.MaxPivots
	if m.Certify {
		m.s.Certify = true
	}
	res, err := m.s.CheckPortfolioStable(ctx, m.Parallelism)
	if err != nil {
		return false, err
	}
	return res == smt.Sat, nil
}

// Stats returns the underlying solver's effort counters accumulated across
// every CheckCostBelow query on this model.
func (m *FeasibilityModel) Stats() smt.Stats { return m.s.Stats() }

// Dispatch returns the per-bus generation of the most recent satisfying
// query. Valid only after CheckCostBelow returned true.
func (m *FeasibilityModel) Dispatch() []float64 {
	dispatch := make([]float64, m.g.NumBuses())
	for i, gen := range m.g.Generators {
		dispatch[gen.Bus-1] += m.s.RealValueFloat(m.vars.Gen[i])
	}
	return dispatch
}
