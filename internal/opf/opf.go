// Package opf solves the DC Optimal Power Flow problem (paper Sec. II-D,
// Eqs. 3-6) three ways:
//
//   - Solve: an exact minimum-cost dispatch via the LP simplex; WarmSolver
//     solves the attack-free baseline that way once and re-optimizes each
//     attacked topology from it;
//   - Encode/FeasibleWithin: the paper's "OPF model" — a feasibility query
//     "is there a dispatch with cost <= T?" encoded for the SMT solver
//     (Eqs. 30-35), which the impact-analysis framework negates to certify
//     a minimum cost increase (Eq. 37);
//   - SolveShift: the shift-factor formulation with LODF handling of a
//     single-line outage (paper Sec. IV-A's scalability optimization).
package opf

import (
	"errors"
	"fmt"
	"math"

	"gridattack/internal/dist"
	"gridattack/internal/grid"
	"gridattack/internal/lp"
)

// ErrInfeasible indicates no dispatch satisfies the constraints.
var ErrInfeasible = errors.New("opf: infeasible")

// ErrNoGenerators indicates the grid has no dispatchable generation.
var ErrNoGenerators = errors.New("opf: no generators")

// Solution is an optimal dispatch.
type Solution struct {
	Cost     float64   // total generation cost including fixed terms
	Dispatch []float64 // generation per bus (index 0 = bus 1)
	Flows    []float64 // line flows (index 0 = line 1)
	Theta    []float64 // bus angles; nil for the shift-factor solver
}

// angleVars records where the angle-formulation LP builder placed each model
// quantity, so the solution can be mapped back to the grid.
type angleVars struct {
	thetaVar  []int
	genVar    []int
	flowVar   []int
	flowRow   []int // by line ID, its defining row; -1 for an unmapped line
	nodalRow  int   // bus k's nodal balance is row nodalRow+k
	fixedCost float64
}

// buildAngleLP constructs the angle-formulation OPF linear program for
// topology t and the given loads; the loads enter only the nodal-balance
// right-hand sides.
func buildAngleLP(g *grid.Grid, t grid.Topology, loads []float64) (*lp.Problem, *angleVars, error) {
	p := lp.NewProblem()
	inf := math.Inf(1)

	// Angle variables; the reference bus is fixed at 0 (not a variable).
	thetaVar := make([]int, g.NumBuses()+1)
	for _, bus := range g.Buses {
		if bus.ID == g.RefBus {
			thetaVar[bus.ID] = -1
			continue
		}
		thetaVar[bus.ID] = p.AddVariable(-inf, inf, 0, fmt.Sprintf("theta%d", bus.ID))
	}
	// Generator outputs.
	genVar := make([]int, len(g.Generators))
	var fixedCost float64
	for i, gen := range g.Generators {
		genVar[i] = p.AddVariable(gen.MinP, gen.MaxP, gen.Beta, fmt.Sprintf("pg%d", gen.Bus))
		fixedCost += gen.Alpha
	}
	// Flow variables for mapped lines, with capacity bounds and the defining
	// constraint F_i - d_i*theta_f + d_i*theta_e = 0.
	flowVar := make([]int, g.NumLines()+1)
	flowRow := make([]int, g.NumLines()+1)
	for _, ln := range g.Lines {
		flowVar[ln.ID], flowRow[ln.ID] = -1, -1
		if !t.Contains(ln.ID) {
			continue
		}
		fv := p.AddVariable(-ln.Capacity, ln.Capacity, 0, fmt.Sprintf("f%d", ln.ID))
		flowVar[ln.ID], flowRow[ln.ID] = fv, p.NumConstraints()
		terms := []lp.Term{{Var: fv, Coeff: 1}}
		if v := thetaVar[ln.From]; v >= 0 {
			terms = append(terms, lp.Term{Var: v, Coeff: -ln.Admittance})
		}
		if v := thetaVar[ln.To]; v >= 0 {
			terms = append(terms, lp.Term{Var: v, Coeff: ln.Admittance})
		}
		p.AddConstraint(terms, lp.EQ, 0)
	}
	// Nodal balance: sum(outgoing) - sum(incoming) - sum(gen at bus) = -load.
	nodalRow := p.NumConstraints()
	for _, bus := range g.Buses {
		var terms []lp.Term
		for _, ln := range g.Lines {
			fv := flowVar[ln.ID]
			if fv < 0 {
				continue
			}
			if ln.From == bus.ID {
				terms = append(terms, lp.Term{Var: fv, Coeff: 1})
			}
			if ln.To == bus.ID {
				terms = append(terms, lp.Term{Var: fv, Coeff: -1})
			}
		}
		for i, gen := range g.Generators {
			if gen.Bus == bus.ID {
				terms = append(terms, lp.Term{Var: genVar[i], Coeff: -1})
			}
		}
		if len(terms) == 0 && loads[bus.ID-1] != 0 {
			return nil, nil, fmt.Errorf("opf: isolated bus %d with load: %w", bus.ID, ErrInfeasible)
		}
		p.AddConstraint(terms, lp.EQ, -loads[bus.ID-1])
	}
	return p, &angleVars{thetaVar: thetaVar, genVar: genVar, flowVar: flowVar, flowRow: flowRow, nodalRow: nodalRow, fixedCost: fixedCost}, nil
}

// extractAngleSolution maps an optimal LP point back to the grid model.
func extractAngleSolution(g *grid.Grid, sol *lp.Solution, av *angleVars) *Solution {
	out := &Solution{
		Cost:     sol.Objective + av.fixedCost,
		Dispatch: make([]float64, g.NumBuses()),
		Flows:    make([]float64, g.NumLines()),
		Theta:    make([]float64, g.NumBuses()),
	}
	for i, gen := range g.Generators {
		out.Dispatch[gen.Bus-1] += sol.Value(av.genVar[i])
	}
	for _, ln := range g.Lines {
		if fv := av.flowVar[ln.ID]; fv >= 0 {
			out.Flows[ln.ID-1] = sol.Value(fv)
		}
	}
	for _, bus := range g.Buses {
		if v := av.thetaVar[bus.ID]; v >= 0 {
			out.Theta[bus.ID-1] = sol.Value(v)
		}
	}
	return out
}

// checkSolveInputs validates the shared preconditions of the LP solvers.
func checkSolveInputs(g *grid.Grid, loads []float64) ([]float64, error) {
	if len(g.Generators) == 0 {
		return nil, ErrNoGenerators
	}
	if loads == nil {
		loads = g.LoadVector()
	}
	if len(loads) != g.NumBuses() {
		return nil, fmt.Errorf("opf: load vector length %d, want %d", len(loads), g.NumBuses())
	}
	return loads, nil
}

// Solve computes the exact minimum-cost dispatch for the grid under mapped
// topology t serving the given per-bus loads (nil means the grid's existing
// loads). Only lines in t carry flow or capacity constraints.
func Solve(g *grid.Grid, t grid.Topology, loads []float64) (*Solution, error) {
	p, av, err := gatedAngleLP(g, t, loads)
	if err != nil {
		return nil, err
	}
	sol, err := p.Solve()
	return angleResult(g, sol, av, err)
}

var errDisconnected = fmt.Errorf("opf: topology disconnects the network: %w", ErrInfeasible)

// gatedAngleLP applies Solve's input checks and connectivity gate, then
// builds the angle LP.
func gatedAngleLP(g *grid.Grid, t grid.Topology, loads []float64) (*lp.Problem, *angleVars, error) {
	loads, err := checkSolveInputs(g, loads)
	if err != nil {
		return nil, nil, err
	}
	if !g.Connected(t) {
		return nil, nil, errDisconnected
	}
	return buildAngleLP(g, t, loads)
}

// angleResult maps the angle LP's outcome to Solve's result.
func angleResult(g *grid.Grid, sol *lp.Solution, av *angleVars, err error) (*Solution, error) {
	if err != nil {
		return nil, fmt.Errorf("opf: %w", err)
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, ErrInfeasible
	case lp.Unbounded:
		return nil, fmt.Errorf("opf: unbounded LP (model error)")
	}
	return extractAngleSolution(g, sol, av), nil
}

// SolveShift computes the minimum-cost dispatch using the shift-factor
// (PTDF) formulation on the factors' topology, optionally applying a
// single-line outage via LODFs (outage = 0 means none). This is the paper's
// Sec. IV-A fast path: the factors are computed once and reused across
// candidate attacks.
func SolveShift(g *grid.Grid, fac *dist.Factors, outage int, loads []float64) (*Solution, error) {
	loads, err := checkSolveInputs(g, loads)
	if err != nil {
		return nil, err
	}

	p := lp.NewProblem()
	genVar := make([]int, len(g.Generators))
	var fixedCost float64
	for i, gen := range g.Generators {
		genVar[i] = p.AddVariable(gen.MinP, gen.MaxP, gen.Beta, fmt.Sprintf("pg%d", gen.Bus))
		fixedCost += gen.Alpha
	}
	// Total balance.
	terms := make([]lp.Term, len(genVar))
	var totalLoad float64
	for i := range genVar {
		terms[i] = lp.Term{Var: genVar[i], Coeff: 1}
	}
	for _, l := range loads {
		totalLoad += l
	}
	p.AddConstraint(terms, lp.EQ, totalLoad)

	// Line-capacity rows: flow_i = sum_j ptdf_ij * inj_j (+ LODF pickup from
	// the outaged line), inj_j = gen_j - load_j.
	for _, ln := range g.Lines {
		if ln.ID == outage {
			continue
		}
		coeff := make([]float64, g.NumBuses())
		for j := 1; j <= g.NumBuses(); j++ {
			coeff[j-1] = fac.PTDF(ln.ID, j)
		}
		if outage != 0 {
			lodf, err := fac.LODF(ln.ID, outage)
			if err != nil {
				return nil, fmt.Errorf("opf: LODF(%d,%d): %w", ln.ID, outage, err)
			}
			for j := 1; j <= g.NumBuses(); j++ {
				coeff[j-1] += lodf * fac.PTDF(outage, j)
			}
		}
		var rowTerms []lp.Term
		var constPart float64
		for j := 0; j < g.NumBuses(); j++ {
			constPart -= coeff[j] * loads[j]
		}
		for i, gen := range g.Generators {
			if c := coeff[gen.Bus-1]; c != 0 {
				rowTerms = append(rowTerms, lp.Term{Var: genVar[i], Coeff: c})
			}
		}
		p.AddConstraint(rowTerms, lp.LE, ln.Capacity-constPart)
		neg := make([]lp.Term, len(rowTerms))
		for k, tm := range rowTerms {
			neg[k] = lp.Term{Var: tm.Var, Coeff: -tm.Coeff}
		}
		p.AddConstraint(neg, lp.LE, ln.Capacity+constPart)
	}

	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("opf: %w", err)
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, ErrInfeasible
	case lp.Unbounded:
		return nil, fmt.Errorf("opf: unbounded LP (model error)")
	}
	out := &Solution{
		Cost:     sol.Objective + fixedCost,
		Dispatch: make([]float64, g.NumBuses()),
		Flows:    make([]float64, g.NumLines()),
	}
	for i, gen := range g.Generators {
		out.Dispatch[gen.Bus-1] += sol.Value(genVar[i])
	}
	inj := make([]float64, g.NumBuses())
	for j := range inj {
		inj[j] = out.Dispatch[j] - loads[j]
	}
	base, err := fac.Flows(inj)
	if err != nil {
		return nil, err
	}
	if outage == 0 {
		out.Flows = base
	} else {
		after, err := fac.FlowsAfterOutage(base, outage)
		if err != nil {
			return nil, err
		}
		out.Flows = after
	}
	return out, nil
}
