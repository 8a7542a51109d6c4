package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"

	"gridattack/internal/grid"
	"gridattack/internal/opf"
)

// The DC-OPF oracle solves the same dispatch problem as opf.Solve by a
// completely different method: it reduces the problem to generator space
// (flows are an exact linear function of the dispatch once the topology is
// fixed), then enumerates every candidate vertex of the feasible polytope —
// each choice of dim-many active constraints — solving the resulting linear
// systems exactly in big.Rat. The minimum over feasible vertices is the
// exact optimum; no feasible vertex means the LP is infeasible (the
// polytope is bounded, so nonempty implies a vertex exists).

// opfOracleResult is the oracle verdict.
type opfOracleResult struct {
	feasible bool
	cost     *big.Rat
}

// linFun is an affine function of the dispatch: coeff . g + constant.
type linFun struct {
	coeff []*big.Rat
	c     *big.Rat
}

// flowFunctions computes, for every mapped line, the line flow as an exact
// affine function of the generator outputs: theta = Bred^-1 (inj_red),
// flow_l = d_l (theta_f - theta_e). Returns nil when the topology
// disconnects the network (Bred singular) — callers treat that as
// infeasible, matching opf.Solve.
func flowFunctions(g *grid.Grid, t grid.Topology, loads []float64) map[int]*linFun {
	b := g.NumBuses()
	// Reduced index map (same convention as the implementation, but the
	// matrix assembly and solve below are independent).
	idx := make([]int, b+1)
	ri := 0
	for _, bus := range g.Buses {
		if bus.ID == g.RefBus {
			idx[bus.ID] = -1
			continue
		}
		idx[bus.ID] = ri
		ri++
	}
	n := b - 1
	bm := newRatMat(n, n)
	for _, ln := range g.Lines {
		if !t.Contains(ln.ID) {
			continue
		}
		d := ratFromFloat(ln.Admittance)
		fi, ti := idx[ln.From], idx[ln.To]
		if fi >= 0 {
			bm.add(fi, fi, d)
		}
		if ti >= 0 {
			bm.add(ti, ti, d)
		}
		if fi >= 0 && ti >= 0 {
			nd := new(big.Rat).Neg(d)
			bm.add(fi, ti, nd)
			bm.add(ti, fi, nd)
		}
	}
	// theta as affine function of dispatch: solve Bred X = RHS for the
	// constant part (-loads) and one column per generator bus.
	ng := len(g.Generators)
	rhs0 := make([]*big.Rat, n)
	for i := range rhs0 {
		rhs0[i] = new(big.Rat)
	}
	for busID := 1; busID <= b; busID++ {
		if loads[busID-1] != 0 {
			if ri := idx[busID]; ri >= 0 {
				rhs0[ri].Sub(rhs0[ri], ratFromFloat(loads[busID-1]))
			}
		}
	}
	theta0, ok := ratSolve(bm, rhs0)
	if !ok {
		return nil
	}
	thetaG := make([][]*big.Rat, ng)
	for k, gen := range g.Generators {
		rhs := make([]*big.Rat, n)
		for i := range rhs {
			rhs[i] = new(big.Rat)
		}
		if ri := idx[gen.Bus]; ri >= 0 {
			rhs[ri].SetInt64(1)
		}
		col, ok := ratSolve(bm, rhs)
		if !ok {
			return nil
		}
		thetaG[k] = col
	}
	thetaAt := func(busID int) (*big.Rat, []*big.Rat) {
		ri := idx[busID]
		if ri < 0 {
			zero := make([]*big.Rat, ng)
			for i := range zero {
				zero[i] = new(big.Rat)
			}
			return new(big.Rat), zero
		}
		cols := make([]*big.Rat, ng)
		for k := range cols {
			cols[k] = thetaG[k][ri]
		}
		return theta0[ri], cols
	}
	out := make(map[int]*linFun, len(g.Lines))
	for _, ln := range g.Lines {
		if !t.Contains(ln.ID) {
			continue
		}
		d := ratFromFloat(ln.Admittance)
		c0f, colsF := thetaAt(ln.From)
		c0t, colsT := thetaAt(ln.To)
		f := &linFun{coeff: make([]*big.Rat, ng), c: new(big.Rat)}
		f.c.Sub(c0f, c0t)
		f.c.Mul(f.c, d)
		for k := 0; k < ng; k++ {
			f.coeff[k] = new(big.Rat).Sub(colsF[k], colsT[k])
			f.coeff[k].Mul(f.coeff[k], d)
		}
		out[ln.ID] = f
	}
	return out
}

// opfOracle computes the exact DC-OPF optimum (or infeasibility) for the
// grid under topology t serving the given loads (nil = grid loads).
func opfOracle(g *grid.Grid, t grid.Topology, loads []float64) (*opfOracleResult, error) {
	return opfOracleRelaxed(g, t, loads, nil)
}

// opfOracleRelaxed is opfOracle with every inequality bound shifted by
// relax*(1+|rhs|) (relax < 0 tightens). checkOPF uses it to decide whether a
// feasibility disagreement with the float64 LP is a genuine bug or a
// boundary-degenerate system: the generator works in float arithmetic, so it
// can (and does) produce loads that exceed a capacity by one ULP — exactly
// infeasible, but far below any tolerance a float LP can or should resolve.
// If the exact verdict flips within the band, the system has no robust
// verdict and the comparison is vacuous.
func opfOracleRelaxed(g *grid.Grid, t grid.Topology, loads []float64, relax *big.Rat) (*opfOracleResult, error) {
	if len(g.Generators) == 0 {
		return nil, errors.New("difftest: oracle needs generators")
	}
	if loads == nil {
		loads = g.LoadVector()
	}
	if !g.Connected(t) {
		return &opfOracleResult{feasible: false}, nil
	}
	flows := flowFunctions(g, t, loads)
	if flows == nil {
		return &opfOracleResult{feasible: false}, nil
	}
	ng := len(g.Generators)

	// Constraint list over dispatch g (dimension ng, one equality
	// sum g = totalLoad): rows are (coeffs, rhs) for coeff.g <= rhs.
	type row struct {
		coeff []*big.Rat
		rhs   *big.Rat
	}
	var rows []row
	addRow := func(f *linFun, sign int64, bound *big.Rat) {
		r := row{coeff: make([]*big.Rat, ng), rhs: new(big.Rat)}
		s := new(big.Rat).SetInt64(sign)
		for k := 0; k < ng; k++ {
			r.coeff[k] = new(big.Rat).Mul(f.coeff[k], s)
		}
		// sign*(coeff.g + c) <= bound  =>  sign*coeff.g <= bound - sign*c
		sc := new(big.Rat).Mul(f.c, s)
		r.rhs.Sub(bound, sc)
		rows = append(rows, r)
	}
	unit := func(k int, sign int64, bound *big.Rat) {
		f := &linFun{coeff: make([]*big.Rat, ng), c: new(big.Rat)}
		for i := range f.coeff {
			f.coeff[i] = new(big.Rat)
		}
		f.coeff[k].SetInt64(1)
		addRow(f, sign, bound)
	}
	for k, gen := range g.Generators {
		unit(k, 1, ratFromFloat(gen.MaxP))
		unit(k, -1, new(big.Rat).Neg(ratFromFloat(gen.MinP)))
	}
	for _, ln := range g.Lines {
		f, ok := flows[ln.ID]
		if !ok {
			continue
		}
		c := ratFromFloat(ln.Capacity)
		addRow(f, 1, c)
		addRow(f, -1, c)
	}

	if relax != nil {
		one := big.NewRat(1, 1)
		for _, r := range rows {
			scale := new(big.Rat).Abs(r.rhs)
			scale.Add(scale, one)
			scale.Mul(scale, relax)
			r.rhs.Add(r.rhs, scale)
		}
	}

	totalLoad := new(big.Rat)
	for _, l := range loads {
		totalLoad.Add(totalLoad, ratFromFloat(l))
	}

	// Enumerate candidate vertices: the equality plus (ng-1) active
	// inequality rows pin down a unique dispatch (when independent).
	dim := ng - 1
	best := (*big.Rat)(nil)
	feasibleAny := false
	betas := make([]*big.Rat, ng)
	alphaSum := new(big.Rat)
	for k, gen := range g.Generators {
		betas[k] = ratFromFloat(gen.Beta)
		alphaSum.Add(alphaSum, ratFromFloat(gen.Alpha))
	}
	tryPoint := func(x []*big.Rat) {
		// Feasibility: every row within bounds (exact).
		lhs := new(big.Rat)
		tmp := new(big.Rat)
		for _, r := range rows {
			lhs.SetInt64(0)
			for k := 0; k < ng; k++ {
				tmp.Mul(r.coeff[k], x[k])
				lhs.Add(lhs, tmp)
			}
			if lhs.Cmp(r.rhs) > 0 {
				return
			}
		}
		feasibleAny = true
		cost := new(big.Rat).Set(alphaSum)
		for k := 0; k < ng; k++ {
			tmp.Mul(betas[k], x[k])
			cost.Add(cost, tmp)
		}
		if best == nil || cost.Cmp(best) < 0 {
			best = cost
		}
	}

	sys := newRatMat(ng, ng)
	rhs := make([]*big.Rat, ng)
	var recurse func(start, chosen int, picked []int)
	recurse = func(start, chosen int, picked []int) {
		if chosen == dim {
			// Row 0: sum g = totalLoad; rows 1..: the picked active rows.
			for j := 0; j < ng; j++ {
				sys.a[0][j].SetInt64(1)
			}
			rhs[0] = totalLoad
			for i, ri := range picked {
				for j := 0; j < ng; j++ {
					sys.a[i+1][j].Set(rows[ri].coeff[j])
				}
				rhs[i+1] = rows[ri].rhs
			}
			if x, ok := ratSolve(sys, rhs); ok {
				tryPoint(x)
			}
			return
		}
		for i := start; i < len(rows); i++ {
			recurse(i+1, chosen+1, append(picked, i))
		}
	}
	recurse(0, 0, nil)
	if !feasibleAny {
		return &opfOracleResult{feasible: false}, nil
	}
	return &opfOracleResult{feasible: true, cost: best}, nil
}

// checkOPF cross-validates opf.Solve against the exact oracle on the true
// topology (and, when mapped-line removal keeps the network connected, on
// one perturbed topology too). On that reduced topology it also judges the
// re-optimization from the true topology's WarmSolver, at the grid's loads
// and with the removed line's flow moved onto its end buses' loads. Empty
// return means agreement.
func checkOPF(sys *System) string {
	g := sys.Grid
	topos := []grid.Topology{g.TrueTopology()}
	// One reduced topology, if some line can be dropped without splitting.
	full := g.TrueTopology()
	var removed grid.Line
	for _, ln := range g.Lines {
		if !full.Contains(ln.ID) {
			continue
		}
		cand := full.WithExcluded(ln.ID)
		if g.Connected(cand) {
			topos = append(topos, cand)
			removed = ln
			break
		}
	}
	for _, t := range topos {
		want, err := opfOracle(g, t, nil)
		if err != nil {
			return fmt.Sprintf("opf oracle error: %v", err)
		}
		sol, err := opf.Solve(g, t, nil)
		if msg := judgeOPF(g, t, nil, want, "opf.Solve", sol, err); msg != "" {
			return msg
		}
		if err != nil || !want.feasible {
			continue
		}
		oc, _ := want.cost.Float64()
		if msg := checkExactOPF(g, t, oc); msg != "" {
			return msg
		}
	}
	// The fleet's degraded cycles: the true topology at a load picture off
	// the grid's own, in the last bits and by a percent, re-optimized from
	// the baseline. The perturbation is a function of the bus index alone,
	// so the case's RNG, and every generated system, stays as it was.
	ws := opf.NewWarmSolver(g)
	for _, scale := range []float64{1e-13, 1e-2} {
		loads := g.LoadVector()
		for k := range loads {
			loads[k] *= 1 + scale*float64(k%3-1)
		}
		want, err := opfOracle(g, topos[0], loads)
		if err != nil {
			return fmt.Sprintf("opf oracle error: %v", err)
		}
		sol, err := ws.SolveTopology(topos[0], loads)
		if msg := judgeOPF(g, topos[0], loads, want, "WarmSolver.SolveTopology", sol, err); msg != "" {
			return msg
		}
	}
	if len(topos) == 1 {
		return ""
	}
	shifted := g.LoadVector()
	if base, err := ws.Baseline(); err == nil {
		shifted[removed.From-1] += base.Flows[removed.ID-1]
		shifted[removed.To-1] -= base.Flows[removed.ID-1]
	}
	for _, loads := range [][]float64{nil, shifted} {
		want, err := opfOracle(g, topos[1], loads)
		if err != nil {
			return fmt.Sprintf("opf oracle error: %v", err)
		}
		sol, err := ws.SolveTopology(topos[1], loads)
		if msg := judgeOPF(g, topos[1], loads, want, "WarmSolver.SolveTopology", sol, err); msg != "" {
			return msg
		}
	}
	return ""
}

// judgeOPF compares one float OPF result (sol, err) on (g, t, loads) with
// the oracle's verdict want, charging a feasibility disagreement only when
// robustVerdict finds it outside the boundary band, and a cost beyond 1e-6
// relative.
func judgeOPF(g *grid.Grid, t grid.Topology, loads []float64, want *opfOracleResult, who string, sol *opf.Solution, err error) string {
	switch {
	case errors.Is(err, opf.ErrInfeasible):
		if want.feasible && robustVerdict(g, t, loads, -1) {
			oc, _ := want.cost.Float64()
			return fmt.Sprintf("%s says infeasible, oracle found optimum %.6f (topology %v)", who, oc, t.Lines())
		}
	case err != nil:
		return fmt.Sprintf("%s error: %v", who, err)
	case !want.feasible:
		if robustVerdict(g, t, loads, 1) {
			return fmt.Sprintf("%s found cost %.6f, oracle says infeasible (topology %v)", who, sol.Cost, t.Lines())
		}
	default:
		if oc, _ := want.cost.Float64(); relDiff(sol.Cost, oc) > 1e-6 {
			return fmt.Sprintf("opf cost mismatch: %s %.9f vs oracle %.9f (topology %v)", who, sol.Cost, oc, t.Lines())
		}
	}
	return ""
}

// checkExactOPF cross-validates the exact model on a topology where the
// float LP found an optimum: the certified optimum plus the fixed costs must
// match the oracle's cost oc within 1e-9 relative (the oracle reads floats
// exactly, the model through smt.RatFromFloat), and CostBelow must give the
// SMT feasibility model's answer at caps just above, just below and at the
// nearest float to the exact optimum.
func checkExactOPF(g *grid.Grid, t grid.Topology, oc float64) string {
	em, err := opf.NewExactModel(context.Background(), g, t, nil)
	if err != nil {
		return fmt.Sprintf("exact model refused a float-optimal OPF: %v (topology %v)", err, t.Lines())
	}
	var alpha float64
	for _, gen := range g.Generators {
		alpha += gen.Alpha
	}
	exact := new(big.Rat).Add(em.Optimum(), ratFromFloat(alpha))
	cost, _ := exact.Float64()
	if relDiff(cost, oc) > 1e-9 {
		return fmt.Sprintf("exact optimum %.12f vs oracle %.12f (topology %v)", cost, oc, t.Lines())
	}
	for _, c := range []float64{cost * (1 + 1e-6), cost * (1 - 1e-6), cost} {
		feasible, _, err := opf.FeasibleWithin(g, t, nil, c, 0)
		if err != nil {
			return fmt.Sprintf("opf.FeasibleWithin error: %v", err)
		}
		if below := em.CostBelow(c); below != feasible {
			return fmt.Sprintf("exact CostBelow(%v) = %t, SMT model says %t (topology %v)", c, below, feasible, t.Lines())
		}
	}
	return ""
}

// opfBoundaryBand is the relative bound-perturbation under which a
// feasibility verdict must be stable before a float-LP disagreement counts
// as a discrepancy. It sits well above float64 ULP noise (~1e-16 on O(1)
// data) and well below anything the generator's 0.25-ish value grid can
// produce as a genuine margin.
var opfBoundaryBand = big.NewRat(1, 10_000_000) // 1e-7

// robustVerdict reports whether the oracle's feasibility verdict on (g, t,
// loads) survives shifting every inequality bound by dir*opfBoundaryBand
// relative (dir=+1 relaxes — checks an infeasible verdict; dir=-1 tightens —
// checks a feasible one). A verdict that flips inside the band is
// boundary-degenerate: the float64 LP cannot (and should not) resolve it,
// so no discrepancy is charged.
func robustVerdict(g *grid.Grid, t grid.Topology, loads []float64, dir int64) bool {
	relax := new(big.Rat).Mul(opfBoundaryBand, big.NewRat(dir, 1))
	shifted, err := opfOracleRelaxed(g, t, loads, relax)
	if err != nil {
		return true // can't probe the band; let the discrepancy stand
	}
	if dir > 0 {
		return !shifted.feasible // still infeasible even relaxed => robust
	}
	return shifted.feasible // still feasible even tightened => robust
}

// relDiff returns |a-b| / max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / m
}
