package opf

import (
	"fmt"
	"math/big"
	"time"

	"gridattack/internal/grid"
	"gridattack/internal/smt"
)

// Vars exposes the SMT variables of an encoded OPF feasibility model so
// callers can read dispatch values from a model or add further constraints.
type Vars struct {
	Theta []int // per bus (index 0 = bus 1); Theta[ref-1] constrained to 0
	Gen   []int // per generator, aligned with grid.Generators
	Flow  []int // per line (index 0 = line 1); unconstrained when unmapped
}

// Encode asserts the OPF feasibility constraints (paper Eqs. 30-35) into the
// solver: is there a dispatch with total cost <= costCap that serves `loads`
// under mapped topology t? It returns handles to the created variables.
func Encode(s *smt.Solver, g *grid.Grid, t grid.Topology, loads []float64, costCap float64) (*Vars, error) {
	v, err := EncodeBase(s, g, t, loads)
	if err != nil {
		return nil, err
	}
	assertCostCap(s, g, v, costCap)
	return v, nil
}

// EncodeBase asserts the cap-independent OPF constraints (Eqs. 30-34):
// generator limits, flow definitions and capacities, and nodal balance. The
// cost cap (Eq. 35) is left to the caller, so one encoded model can serve a
// sequence of progressively tighter cost queries on the same solver.
func EncodeBase(s *smt.Solver, g *grid.Grid, t grid.Topology, loads []float64) (*Vars, error) {
	if len(g.Generators) == 0 {
		return nil, ErrNoGenerators
	}
	if loads == nil {
		loads = g.LoadVector()
	}
	if len(loads) != g.NumBuses() {
		return nil, fmt.Errorf("opf: load vector length %d, want %d", len(loads), g.NumBuses())
	}
	v := &Vars{
		Theta: make([]int, g.NumBuses()),
		Gen:   make([]int, len(g.Generators)),
		Flow:  make([]int, g.NumLines()),
	}
	for _, bus := range g.Buses {
		v.Theta[bus.ID-1] = s.NewReal(fmt.Sprintf("theta%d", bus.ID))
	}
	// Reference angle pinned to zero.
	s.Assert(varCmp(v.Theta[g.RefBus-1], smt.OpEQ, 0))

	// Generator bounds (Eq. 31).
	for i, gen := range g.Generators {
		v.Gen[i] = s.NewReal(fmt.Sprintf("pg%d", gen.Bus))
		s.Assert(varCmp(v.Gen[i], smt.OpGE, gen.MinP))
		s.Assert(varCmp(v.Gen[i], smt.OpLE, gen.MaxP))
	}

	// Flow definitions and capacities (Eqs. 32, 34); unmapped lines carry no
	// flow (Eq. 32 conditioned on k_i).
	for _, ln := range g.Lines {
		fv := s.NewReal(fmt.Sprintf("f%d", ln.ID))
		v.Flow[ln.ID-1] = fv
		if !t.Contains(ln.ID) {
			s.Assert(varCmp(fv, smt.OpEQ, 0))
			continue
		}
		def := smt.NewLinExpr().AddInt(1, fv).
			AddFloat(-ln.Admittance, v.Theta[ln.From-1]).
			AddFloat(ln.Admittance, v.Theta[ln.To-1])
		s.Assert(smt.AtomFloat(def, smt.OpEQ, 0))
		s.Assert(varCmp(fv, smt.OpLE, ln.Capacity))
		s.Assert(varCmp(fv, smt.OpGE, -ln.Capacity))
	}

	// Nodal balance (Eq. 33): consumption = incoming - outgoing = load - gen.
	// A bus with no mapped line and no generator sums nothing: smt.Atom folds
	// its row to a constant.
	for _, bus := range g.Buses {
		sum := smt.NewLinExpr()
		for _, ln := range g.Lines {
			if !t.Contains(ln.ID) {
				continue
			}
			if ln.To == bus.ID {
				sum.AddInt(1, v.Flow[ln.ID-1])
			}
			if ln.From == bus.ID {
				sum.AddInt(-1, v.Flow[ln.ID-1])
			}
		}
		for i, gen := range g.Generators {
			if gen.Bus == bus.ID {
				sum.AddInt(1, v.Gen[i])
			}
		}
		s.Assert(smt.AtomFloat(sum, smt.OpEQ, loads[bus.ID-1]))
	}

	// Total balance (Eq. 30) — implied by the nodal rows, asserted for
	// fidelity with the paper's model. The right-hand side must be the
	// exact rational sum of the per-bus load rationals: a float64 sum
	// differs from it by rounding, which would make this redundant row
	// inconsistent under exact arithmetic.
	gens := smt.NewLinExpr()
	for i := range g.Generators {
		gens.AddInt(1, v.Gen[i])
	}
	total := new(big.Rat)
	for _, l := range loads {
		total.Add(total, smt.RatFromFloat(l))
	}
	s.Assert(smt.Atom(gens, smt.OpEQ, total))
	return v, nil
}

// varCmp returns the atom x op c over one real variable x.
func varCmp(x int, op smt.Op, c float64) *smt.Formula {
	return smt.AtomFloat(smt.NewLinExpr().AddInt(1, x), op, c)
}

// assertCostCap asserts the cost cap (Eq. 35):
// sum(alpha_j + beta_j * Pg_j) <= costCap.
func assertCostCap(s *smt.Solver, g *grid.Grid, v *Vars, costCap float64) {
	cost := smt.NewLinExpr()
	var alpha float64
	for i, gen := range g.Generators {
		cost.AddFloat(gen.Beta, v.Gen[i])
		alpha += gen.Alpha
	}
	s.Assert(smt.AtomFloat(cost, smt.OpLE, costCap-alpha))
}

// FeasibleWithin reports whether some dispatch serves the loads under
// topology t with total cost <= costCap, by a fresh SMT query (the paper's
// stand-alone OPF model run). On success it also returns the witnessing
// dispatch. maxConflicts bounds solver effort (0 = unlimited); see
// FeasibleWithinTimeout for a wall-clock bound.
func FeasibleWithin(g *grid.Grid, t grid.Topology, loads []float64, costCap float64, maxConflicts int64) (bool, []float64, error) {
	return FeasibleWithinTimeout(g, t, loads, costCap, maxConflicts, 0)
}

// FeasibleWithinTimeout is FeasibleWithin with an additional wall-clock
// bound per solver query (0 = unlimited); on timeout it returns
// smt.ErrCanceled.
func FeasibleWithinTimeout(g *grid.Grid, t grid.Topology, loads []float64, costCap float64, maxConflicts int64, maxDuration time.Duration) (bool, []float64, error) {
	s := smt.NewSolver()
	s.MaxConflicts = maxConflicts
	s.MaxDuration = maxDuration
	vars, err := Encode(s, g, t, loads, costCap)
	if err != nil {
		return false, nil, err
	}
	res, err := s.Check()
	if err != nil {
		return false, nil, err
	}
	if res != smt.Sat {
		return false, nil, nil
	}
	dispatch := make([]float64, g.NumBuses())
	for i, gen := range g.Generators {
		dispatch[gen.Bus-1] += s.RealValueFloat(vars.Gen[i])
	}
	return true, dispatch, nil
}
