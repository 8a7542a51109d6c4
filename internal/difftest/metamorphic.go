package difftest

import (
	"fmt"
	"math/rand"

	"gridattack/internal/attack"
	"gridattack/internal/core"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/se"
)

// Metamorphic properties: transformations of a system with a provable
// relation between the original and transformed answers. Unlike the
// differential oracles these need no second implementation — the
// implementation is checked against itself under an input symmetry.

// permuteGrid relabels buses by the permutation perm (perm[old-1] = new,
// 1-based values) and reorders the bus slice accordingly. Line IDs,
// generator order, and load order are preserved; only endpoint labels and
// the reference bus change.
func permuteGrid(g *grid.Grid, perm []int) *grid.Grid {
	p := g.Clone()
	p.RefBus = perm[g.RefBus-1]
	newBuses := make([]grid.Bus, len(g.Buses))
	for _, b := range g.Buses {
		nb := b
		nb.ID = perm[b.ID-1]
		newBuses[nb.ID-1] = nb
	}
	p.Buses = newBuses
	for i := range p.Lines {
		p.Lines[i].From = perm[p.Lines[i].From-1]
		p.Lines[i].To = perm[p.Lines[i].To-1]
	}
	for i := range p.Generators {
		p.Generators[i].Bus = perm[p.Generators[i].Bus-1]
	}
	for i := range p.Loads {
		p.Loads[i].Bus = perm[p.Loads[i].Bus-1]
	}
	return p
}

// propPermutation: relabeling buses must not change the OPF optimum (the
// problem is label-invariant) nor the PTDF entries (line i's sensitivity to
// bus j equals the relabeled line's sensitivity to the relabeled bus,
// because the reference bus is relabeled along).
func propPermutation(sys *System, rng *rand.Rand) string {
	g := sys.Grid
	perm := make([]int, g.NumBuses())
	for i, v := range rng.Perm(g.NumBuses()) {
		perm[i] = v + 1
	}
	pg := permuteGrid(g, perm)
	if err := pg.Validate(); err != nil {
		return fmt.Sprintf("permuted grid invalid: %v", err)
	}
	base, errA := opf.Solve(g, g.TrueTopology(), nil)
	permuted, errB := opf.Solve(pg, pg.TrueTopology(), nil)
	if (errA == nil) != (errB == nil) {
		return fmt.Sprintf("permutation changed OPF feasibility: %v vs %v (perm %v)", errA, errB, perm)
	}
	if errA != nil {
		return ""
	}
	if relDiff(base.Cost, permuted.Cost) > 1e-6 {
		return fmt.Sprintf("permutation changed OPF cost: %.9f vs %.9f (perm %v)", base.Cost, permuted.Cost, perm)
	}
	// Dispatch moves with the permutation.
	for busID := 1; busID <= g.NumBuses(); busID++ {
		if relDiff(base.Dispatch[busID-1], permuted.Dispatch[perm[busID-1]-1]) > 1e-6 {
			return fmt.Sprintf("permutation changed dispatch at bus %d: %.9f vs %.9f (perm %v)",
				busID, base.Dispatch[busID-1], permuted.Dispatch[perm[busID-1]-1], perm)
		}
	}
	return ""
}

// propCostScale: scaling every generator's Alpha and Beta by k multiplies
// the optimal cost by exactly k (the feasible set is unchanged); adding a
// constant c to every Beta adds exactly c * totalLoad (the dispatch total
// is pinned by the balance constraint).
func propCostScale(sys *System, rng *rand.Rand) string {
	g := sys.Grid
	base, err := opf.Solve(g, g.TrueTopology(), nil)
	if err != nil {
		return "" // infeasible base: nothing to relate
	}
	k := float64(1+rng.Intn(7)) / 2 // 0.5 .. 3.5
	scaled := g.Clone()
	for i := range scaled.Generators {
		scaled.Generators[i].Alpha *= k
		scaled.Generators[i].Beta *= k
	}
	ssol, err := opf.Solve(scaled, scaled.TrueTopology(), nil)
	if err != nil {
		return fmt.Sprintf("cost scaling by %v broke feasibility: %v", k, err)
	}
	if relDiff(ssol.Cost, k*base.Cost) > 1e-6 {
		return fmt.Sprintf("cost-scaling linearity violated: k=%v, %.9f vs expected %.9f", k, ssol.Cost, k*base.Cost)
	}
	c := float64(1 + rng.Intn(100))
	shifted := g.Clone()
	for i := range shifted.Generators {
		shifted.Generators[i].Beta += c
	}
	hsol, err := opf.Solve(shifted, shifted.TrueTopology(), nil)
	if err != nil {
		return fmt.Sprintf("beta shift by %v broke feasibility: %v", c, err)
	}
	want := base.Cost + c*g.TotalLoad()
	if relDiff(hsol.Cost, want) > 1e-6 {
		return fmt.Sprintf("beta-shift affinity violated: c=%v, %.9f vs expected %.9f", c, hsol.Cost, want)
	}
	return ""
}

// propRedundantWLS: with noise-free telemetry, adding measurements to an
// already-observable plan must not move the estimate (every measurement is
// exactly consistent with the same state).
func propRedundantWLS(sys *System, rng *rand.Rand) string {
	g := sys.Grid
	t := g.TrueTopology()
	dispatch := proportionalDispatch(g)
	if dispatch == nil {
		return ""
	}
	pf, err := g.SolvePowerFlow(t, dispatch)
	if err != nil {
		return ""
	}
	full := measure.FullPlan(g.NumLines(), g.NumBuses())
	zFull, err := full.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		return fmt.Sprintf("full measurement vector: %v", err)
	}
	// Reduced plan: forward flows + consumptions only (observable for any
	// connected topology: it contains the full flow information).
	reduced := measure.NewPlan(g.NumLines(), g.NumBuses())
	for _, ln := range g.Lines {
		reduced.Taken[reduced.ForwardIndex(ln.ID)] = true
	}
	est := se.NewEstimator(g, reduced)
	if ok, err := est.Observable(t); err != nil || !ok {
		// Forward flows alone can be rank-deficient on open lines; add
		// consumptions to anchor.
		for _, b := range g.Buses {
			reduced.Taken[reduced.ConsumptionIndex(b.ID)] = true
		}
		est = se.NewEstimator(g, reduced)
		if ok, err := est.Observable(t); err != nil || !ok {
			return "" // cannot build an observable reduced plan; vacuous
		}
	}
	zRed := measure.NewVector(reduced.M())
	for i := 1; i <= reduced.M(); i++ {
		if reduced.Taken[i] {
			zRed.Values[i] = zFull.Values[i]
			zRed.Present[i] = true
		}
	}
	resRed, err := est.Estimate(t, zRed)
	if err != nil {
		return fmt.Sprintf("reduced-plan estimate: %v", err)
	}
	resFull, err := se.NewEstimator(g, full).Estimate(t, zFull)
	if err != nil {
		return fmt.Sprintf("full-plan estimate: %v", err)
	}
	for i := range resRed.Theta {
		if relDiff(resRed.Theta[i], resFull.Theta[i]) > 1e-6 {
			return fmt.Sprintf("redundant measurements moved theta[%d]: %.12f vs %.12f", i+1, resRed.Theta[i], resFull.Theta[i])
		}
	}
	if resFull.Residual > 1e-6 {
		return fmt.Sprintf("noise-free full-plan residual is %.3e, want ~0", resFull.Residual)
	}
	_ = rng
	return ""
}

// propAttackMonotone: if the Fig. 2 loop certifies an attack reaching a
// cost increase of I%, the same system must also admit an attack at any
// lower target I' < I (the same vector qualifies). The property is asserted
// only when both runs produce definitive verdicts (Found or Exhausted
// without hitting the iteration cap or a budget).
func propAttackMonotone(sys *System, rng *rand.Rand) string {
	run := func(target float64) (*core.Report, error) {
		a := &core.Analyzer{
			Grid:                  sys.Grid,
			Plan:                  sys.Plan,
			Capability:            attack.Capability{RequireTopologyChange: true},
			TargetIncreasePercent: target,
			MaxIterations:         40,
			Verify:                core.VerifyLP,
		}
		return a.Run()
	}
	if _, err := opf.Solve(sys.Grid, sys.Grid.TrueTopology(), nil); err != nil {
		return "" // no attack-free optimum: the loop has no baseline
	}
	target := 1 + float64(rng.Intn(4)) // 1..4 %
	hi, err := run(target)
	if err != nil {
		return fmt.Sprintf("analyzer at %v%%: %v", target, err)
	}
	if !hi.Found || hi.Canceled {
		return "" // vacuous: no attack at the higher target (or no verdict)
	}
	lo, err := run(target / 2)
	if err != nil {
		return fmt.Sprintf("analyzer at %v%%: %v", target/2, err)
	}
	if lo.Canceled || (!lo.Found && !lo.Exhausted) {
		return "" // no definitive verdict at the lower target
	}
	if !lo.Found {
		return fmt.Sprintf("monotonicity violated: attack found at %v%% (cost %.4f) but exhausted at %v%%",
			target, hi.AttackedCost, target/2)
	}
	return ""
}
