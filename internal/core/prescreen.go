package core

import (
	"math"
	"sort"
	"sync"

	"gridattack/internal/attack"
	"gridattack/internal/dist"
	"gridattack/internal/grid"
	"gridattack/internal/opf"
)

// prescreenMargin is the relative safety margin the prescreen demands before
// it certifies a candidate. The witness argument below is exact in real
// arithmetic; the margin absorbs the floating-point error of computing the
// witness cost and its post-outage flows, which is many orders of magnitude
// smaller. A candidate within the margin of the threshold or a capacity
// limit is simply not certified — it needs full verification.
const prescreenMargin = 1e-6

// prescreener certifies, for ScreenExclusions, candidate attacks that
// provably cannot raise the post-attack OPF cost to the threshold, without
// any LP or SMT verification. It exploits the structure of the verify step:
// for a candidate with no included lines and at most one excluded line, the
// operator's OPF runs on the true network minus that line. If a concrete
// dispatch exists whose cost is below the threshold and whose post-outage
// flows (via the distribution factors' LODFs) respect every line capacity,
// then the OPF minimum is also below the threshold, so the verification
// verdict must be reached=false — under all three verify modes:
//
//   - VerifyLP / VerifyShift return sol.Cost <= witness cost < T;
//   - VerifySMT's "cost <= T" query is satisfiable (the witness satisfies
//     it), so "no dispatch below T" fails.
//
// Three witness families are tried, cheapest-to-certify first:
//
//  1. The attack-free baseline dispatch, when the candidate observes the
//     true loads unchanged (the topology-only attack case). Its cost is the
//     baseline OPF optimum, below the threshold whenever the target demands
//     a real increase, and it is capacity-feasible on the intact network by
//     construction — only the post-outage LODF redistribution can disqualify
//     it. This is the classic economic N-1 screening argument. (The LP
//     solution respects generator bounds only to its feasibility tolerance,
//     ~1e-7; projecting it onto the exact bounds moves the cost by an amount
//     absorbed many times over by the prescreen margin.)
//  2. Interior dispatches: the OPF re-solved with every capacity shrunk by
//     a factor eps (built lazily, once, on the first eligible candidate).
//     The optimal dispatch usually rides the capacity limits, so witness 1
//     has no headroom to absorb an outage's LODF redistribution; an interior
//     dispatch buys eps headroom on every line at a small, known cost
//     premium. Outages whose redistribution fits inside that headroom
//     certify. Only usable while the premium stays below the threshold.
//  3. The merit-order dispatch: every generator at MinP, then remaining
//     demand filled in ascending marginal-cost order. It serves arbitrary
//     observed loads (1 and 2 require the true loads unchanged) but ignores
//     capacities, so it certifies mostly on lightly-loaded networks.
//
// Any candidate the prescreen cannot certify (outage islands the network,
// witness infeasible, cost or a flow within the margin) is left for full
// verification: a certificate is sound, but its absence proves nothing.
type prescreener struct {
	g         *grid.Grid
	fac       *dist.Factors
	merit     []int // generator indices, ascending Beta (stable on index)
	threshold float64

	// Baseline witness (nil/empty when no baseline solution was supplied):
	// the attack-free OPF dispatch, its cost, and the true loads it serves.
	baseGen   []float64
	baseCost  float64
	baseLoads []float64

	// Interior witnesses, most headroom first; built on first use.
	interiorOnce sync.Once
	interior     []witnessDispatch
}

// witnessDispatch is one concrete cap-headroom dispatch with its exact cost.
type witnessDispatch struct {
	gen  []float64
	cost float64
}

// interiorEps is the capacity-shrink ladder for interior witnesses. Larger
// eps certifies more outages but costs more; entries whose cost premium
// exceeds the threshold are dropped.
var interiorEps = []float64{0.10, 0.05, 0.02}

// newPrescreener builds a prescreener on the grid's true topology, reusing
// fac when the caller already has factors for it (VerifyShift) and base when
// the attack-free OPF has already been solved (its dispatch becomes the
// first witness). It returns nil when the factors cannot be built (e.g. a
// radial network); callers treat a nil prescreener as "never prune".
func newPrescreener(g *grid.Grid, fac *dist.Factors, threshold float64, base *opf.Solution) *prescreener {
	if len(g.Generators) == 0 {
		return nil
	}
	if fac == nil {
		var err error
		fac, err = dist.New(g, g.TrueTopology())
		if err != nil {
			return nil
		}
	}
	merit := make([]int, len(g.Generators))
	for i := range merit {
		merit[i] = i
	}
	sort.SliceStable(merit, func(x, y int) bool {
		return g.Generators[merit[x]].Beta < g.Generators[merit[y]].Beta
	})
	ps := &prescreener{g: g, fac: fac, merit: merit, threshold: threshold}
	if base != nil && len(base.Dispatch) == g.NumBuses() {
		ps.baseGen = base.Dispatch
		ps.baseCost = base.Cost
		ps.baseLoads = g.LoadVector()
	}
	return ps
}

// witness builds the merit-order dispatch serving total demand `total` and
// returns the per-bus generation and its cost. ok=false when the generator
// fleet cannot balance the demand within its limits.
func (ps *prescreener) witness(total float64) (gen []float64, cost float64, ok bool) {
	var minSum float64
	for _, g := range ps.g.Generators {
		minSum += g.MinP
		cost += g.Alpha + g.Beta*g.MinP
	}
	remaining := total - minSum
	if remaining < 0 {
		return nil, 0, false
	}
	gen = make([]float64, ps.g.NumBuses())
	for _, g := range ps.g.Generators {
		gen[g.Bus-1] += g.MinP
	}
	for _, i := range ps.merit {
		if remaining <= 0 {
			break
		}
		g := ps.g.Generators[i]
		take := math.Min(g.MaxP-g.MinP, remaining)
		gen[g.Bus-1] += take
		cost += g.Beta * take
		remaining -= take
	}
	if remaining > 1e-9 {
		return nil, 0, false // fleet maxed out below demand
	}
	return gen, cost, true
}

// buildInterior solves the OPF with capacities shrunk by each ladder eps and
// keeps the dispatches whose cost premium stays below the threshold. Runs
// once; called only for candidates that observe the true loads, which are
// exactly the loads these dispatches balance.
func (ps *prescreener) buildInterior() {
	ps.interiorOnce.Do(func() {
		costMargin := prescreenMargin * (1 + math.Abs(ps.threshold))
		for _, eps := range interiorEps {
			gt := ps.g.Clone()
			for i := range gt.Lines {
				gt.Lines[i].Capacity *= 1 - eps
			}
			sol, err := opf.Solve(gt, gt.TrueTopology(), nil)
			if err != nil || sol.Cost >= ps.threshold-costMargin {
				continue
			}
			ps.interior = append(ps.interior, witnessDispatch{gen: sol.Dispatch, cost: sol.Cost})
		}
	})
}

// baselineApplies reports whether the baseline-dispatch witness serves the
// candidate's observed loads: the loads must be the true loads, unchanged
// bit for bit (topology-only attacks copy them through verbatim).
func (ps *prescreener) baselineApplies(loads []float64) bool {
	if ps.baseGen == nil || len(loads) != len(ps.baseLoads) {
		return false
	}
	for i, l := range loads {
		if l != ps.baseLoads[i] {
			return false
		}
	}
	return true
}

// certify checks one witness dispatch: its post-outage flows (all flows when
// outage is 0) must clear every capacity by the prescreen margin.
func (ps *prescreener) certify(gen, loads []float64, outage int) bool {
	inj := make([]float64, ps.g.NumBuses())
	for i := range inj {
		inj[i] = gen[i] - loads[i]
	}
	flows, err := ps.fac.Flows(inj)
	if err != nil {
		return false
	}
	if outage != 0 {
		flows, err = ps.fac.FlowsAfterOutage(flows, outage)
		if err != nil {
			return false // bridge outage or out-of-topology line: let verify decide
		}
	}
	topo := ps.g.TrueTopology()
	for _, ln := range ps.g.Lines {
		if ln.ID == outage || !topo.Contains(ln.ID) {
			continue
		}
		if math.Abs(flows[ln.ID-1]) > ln.Capacity-prescreenMargin*(1+ln.Capacity) {
			return false
		}
	}
	return true
}

// prune reports whether the candidate provably fails verification; when it
// does, the returned cost is the witness dispatch cost (an upper bound on
// the candidate's OPF minimum).
func (ps *prescreener) prune(v *attack.Vector) (float64, bool) {
	if ps == nil {
		return 0, false
	}
	if len(v.IncludedLines) != 0 || len(v.ExcludedLines) > 1 {
		return 0, false
	}
	loads := v.ObservedLoads
	if len(loads) != ps.g.NumBuses() {
		return 0, false
	}

	outage := 0
	if len(v.ExcludedLines) == 1 {
		outage = v.ExcludedLines[0]
	}
	costMargin := prescreenMargin * (1 + math.Abs(ps.threshold))

	// Witnesses 1 and 2: the attack-free baseline dispatch, then the
	// interior (capacity-headroom) dispatches. Both balance the true loads,
	// so they only apply when the candidate observes them unchanged.
	if ps.baselineApplies(loads) {
		if ps.baseCost < ps.threshold-costMargin && ps.certify(ps.baseGen, loads, outage) {
			return ps.baseCost, true
		}
		ps.buildInterior()
		for _, w := range ps.interior {
			if w.cost < ps.threshold-costMargin && ps.certify(w.gen, loads, outage) {
				return w.cost, true
			}
		}
	}

	// Witness 3: the merit-order dispatch for the observed total load.
	var total float64
	for _, l := range loads {
		total += l
	}
	gen, cost, ok := ps.witness(total)
	if ok && cost < ps.threshold-costMargin && ps.certify(gen, loads, outage) {
		return cost, true
	}
	return 0, false
}
