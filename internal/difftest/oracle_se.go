package difftest

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/se"
)

// The WLS oracle re-derives the state estimate by building the measurement
// matrix from first principles (per-measurement physics, not the
// implementation's matrix products) and solving the normal equations
// (H^T H) x = H^T z exactly in big.Rat. Rank deficiency is decided by exact
// rank, cross-checking se's observability decision (a singular sparse gain
// factorization) in Estimate, Observable and every rung of EstimatePartial.

// measRow returns measurement i as an exact linear function of the
// non-reference bus angles (column order = stateBuses), under topology t.
// The sign conventions follow the physics directly: forward flow of line ln
// is d*(theta_from - theta_to); backward flow its negative; consumption of
// bus j is incoming minus outgoing flows.
func measRowExact(g *grid.Grid, t grid.Topology, plan *measure.Plan, i int, stateIdx map[int]int) []*big.Rat {
	n := len(stateIdx)
	row := make([]*big.Rat, n)
	for k := range row {
		row[k] = new(big.Rat)
	}
	addAngle := func(bus int, c *big.Rat) {
		if k, ok := stateIdx[bus]; ok {
			row[k].Add(row[k], c)
		}
	}
	addFlow := func(ln grid.Line, scale *big.Rat) {
		if !t.Contains(ln.ID) {
			return
		}
		d := new(big.Rat).Mul(ratFromFloat(ln.Admittance), scale)
		addAngle(ln.From, d)
		addAngle(ln.To, new(big.Rat).Neg(d))
	}
	one := big.NewRat(1, 1)
	negOne := big.NewRat(-1, 1)
	kind, subj := plan.KindOf(i)
	switch kind {
	case measure.ForwardFlow:
		addFlow(g.Lines[subj-1], one)
	case measure.BackwardFlow:
		addFlow(g.Lines[subj-1], negOne)
	case measure.Consumption:
		for _, ln := range g.Lines {
			if ln.To == subj {
				addFlow(ln, one) // incoming
			}
			if ln.From == subj {
				addFlow(ln, negOne) // outgoing
			}
		}
	}
	return row
}

// wlsExact is the oracle's exact least-squares solution.
type wlsExact struct {
	theta    []*big.Rat // angle per bus (reference and unestimated buses 0)
	residual float64    // unit-weight l2 norm of z - H*theta, rounded once
	rows     int        // measurements used: taken by the plan and present
}

// wlsOracle solves the unweighted normal equations exactly over the
// measurements the plan takes and z carries. It returns false when that
// set is rank-deficient.
func wlsOracle(g *grid.Grid, t grid.Topology, plan *measure.Plan, z *measure.Vector) (*wlsExact, bool) {
	stateIdx := make(map[int]int)
	var stateBuses []int
	for _, bus := range g.Buses {
		if bus.ID != g.RefBus {
			stateIdx[bus.ID] = len(stateBuses)
			stateBuses = append(stateBuses, bus.ID)
		}
	}
	n := len(stateBuses)
	var hRows [][]*big.Rat
	var zVals []*big.Rat
	for i := 1; i <= plan.M(); i++ {
		if !plan.Taken[i] || !z.Present[i] {
			continue
		}
		hRows = append(hRows, measRowExact(g, t, plan, i, stateIdx))
		zVals = append(zVals, ratFromFloat(z.Values[i]))
	}
	h := newRatMat(len(hRows), n)
	for r, row := range hRows {
		for c := 0; c < n; c++ {
			h.set(r, c, row[c])
		}
	}
	if ratRank(h) < n {
		return nil, false
	}
	// Normal equations.
	gain := newRatMat(n, n)
	rhs := make([]*big.Rat, n)
	tmp := new(big.Rat)
	for c := 0; c < n; c++ {
		rhs[c] = new(big.Rat)
		for r := 0; r < len(hRows); r++ {
			tmp.Mul(h.at(r, c), zVals[r])
			rhs[c].Add(rhs[c], tmp)
		}
		for c2 := 0; c2 < n; c2++ {
			for r := 0; r < len(hRows); r++ {
				tmp.Mul(h.at(r, c), h.at(r, c2))
				gain.add(c, c2, tmp)
			}
		}
	}
	x, ok := ratSolve(gain, rhs)
	if !ok {
		return nil, false
	}
	out := &wlsExact{theta: make([]*big.Rat, g.NumBuses()), rows: len(hRows)}
	for i := range out.theta {
		out.theta[i] = new(big.Rat)
	}
	for k, bus := range stateBuses {
		out.theta[bus-1].Set(x[k])
	}
	// Residual of the exact solution: sum over rows of (z_r - h_r x)^2.
	j2 := new(big.Rat)
	for r, row := range hRows {
		res := new(big.Rat).Set(zVals[r])
		for c := 0; c < n; c++ {
			res.Sub(res, tmp.Mul(row[c], x[c]))
		}
		j2.Add(j2, res.Mul(res, res))
	}
	j2f, _ := j2.Float64()
	out.residual = math.Sqrt(j2f)
	return out, true
}

// checkWLS cross-validates se against the exact normal-equations oracle:
// Estimate and Observable once on consistent (noise-free) telemetry, once
// with a single corrupted measurement (exercising the residual path), each
// on the system's plan and on a random thinning of it that is sometimes
// unobservable; then EstimatePartial on both plans with one bus's RTU lost.
// Empty return means agreement.
func checkWLS(sys *System, rng *rand.Rand) string {
	g := sys.Grid
	t := g.TrueTopology()
	dispatch := proportionalDispatch(g)
	if dispatch == nil {
		return "" // generator guarantees this; defensive
	}
	pf, err := g.SolvePowerFlow(t, dispatch)
	if err != nil {
		return fmt.Sprintf("power flow for WLS check: %v", err)
	}
	thinned := measure.NewPlan(g.NumLines(), g.NumBuses())
	for i := 1; i <= thinned.M(); i++ {
		thinned.Taken[i] = sys.Plan.Taken[i] && rng.Intn(2) == 0
	}
	lostBus := 1 + rng.Intn(g.NumBuses())
	for _, pc := range []struct {
		label string
		plan  *measure.Plan
	}{{"plan", sys.Plan}, {"thinned plan", thinned}} {
		z, err := pc.plan.FromPowerFlow(g, pf, 0, nil)
		if err != nil {
			return fmt.Sprintf("measurement vector: %v", err)
		}
		if d := compareWLS(g, t, pc.plan, z, "consistent, "+pc.label); d != "" {
			return d
		}
		// Corrupt one taken measurement: both sides must still agree on
		// the (now physically meaningless) least-squares solution.
		zc := z.Clone()
		var taken []int
		for i := 1; i <= pc.plan.M(); i++ {
			if zc.Present[i] {
				taken = append(taken, i)
			}
		}
		if len(taken) > 0 {
			i := taken[rng.Intn(len(taken))]
			zc.Values[i] += 0.5 + rng.Float64()
			if d := compareWLS(g, t, pc.plan, zc, "corrupted, "+pc.label); d != "" {
				return d
			}
		}
		if d := compareDegraded(g, t, pc.plan, z, lostBus, pc.label); d != "" {
			return d
		}
	}
	return ""
}

// compareWLS checks se.Estimate's angles, residual, degrees of freedom and
// observability verdict, and se.Observable, against the oracle.
func compareWLS(g *grid.Grid, t grid.Topology, plan *measure.Plan, z *measure.Vector, label string) string {
	est := se.NewEstimator(g, plan)
	res, err := est.Estimate(t, z)
	exact, observable := wlsOracle(g, t, plan, z)
	if obs, oerr := est.Observable(t); oerr != nil || obs != observable {
		return fmt.Sprintf("se.Observable = %v, %v; oracle full rank %v (%s)", obs, oerr, observable, label)
	}
	if errors.Is(err, se.ErrUnobservable) {
		if observable {
			return fmt.Sprintf("se.Estimate says unobservable, oracle rank is full (%s)", label)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("se.Estimate error (%s): %v", label, err)
	}
	if !observable {
		return fmt.Sprintf("se.Estimate produced an estimate, oracle says rank-deficient (%s)", label)
	}
	return compareEstimate(res, exact, label)
}

// compareEstimate checks one estimate against the oracle's exact solution
// over the same measurements.
func compareEstimate(res *se.Result, exact *wlsExact, label string) string {
	if d := compareTheta(res, exact, label); d != "" {
		return d
	}
	if relDiff(res.Residual, exact.residual) > 1e-6 {
		return fmt.Sprintf("WLS residual mismatch (%s): se %.12g vs oracle %.12g", label, res.Residual, exact.residual)
	}
	if want := exact.rows - (len(exact.theta) - 1); res.DegreesOfFreedom != want {
		return fmt.Sprintf("WLS degrees of freedom (%s): se %d vs oracle %d", label, res.DegreesOfFreedom, want)
	}
	return ""
}

// compareDegraded drops the measurements of one bus's RTU from the
// consistent telemetry z and checks EstimatePartial's ladder against the
// oracle. Observable survivors must give the survivors-only estimate of the
// oracle; rank-deficient survivors must not. With the complete telemetry
// as the last good snapshot, a rank-deficient survivor set is completed by
// pseudo-measurements exactly when the whole plan is observable, and the
// substituted values are consistent, so the estimate is the oracle's over
// the whole plan.
func compareDegraded(g *grid.Grid, t grid.Topology, plan *measure.Plan, z *measure.Vector, bus int, label string) string {
	zp := z.Clone()
	dropped := false
	for i := 1; i <= plan.M(); i++ {
		if plan.Taken[i] && plan.BusOf(i, g) == bus {
			zp.Present[i] = false
			zp.Values[i] = 0
			dropped = true
		}
	}
	if !dropped {
		return ""
	}
	label = fmt.Sprintf("bus %d RTU lost, %s", bus, label)
	est := se.NewEstimator(g, plan)
	res, err := est.EstimatePartial(t, zp, nil)
	exact, observable := wlsOracle(g, t, plan, zp)
	if observable {
		if err != nil {
			return fmt.Sprintf("EstimatePartial error on observable survivors (%s): %v", label, err)
		}
		if !res.Degraded || res.Pseudo != nil || res.IslandBuses != nil {
			return fmt.Sprintf("EstimatePartial did not solve observable survivors alone (%s): degraded %v, pseudo %v, island %v",
				label, res.Degraded, res.Pseudo, res.IslandBuses)
		}
		return compareEstimate(res, exact, "survivors, "+label)
	}
	if err == nil && res.IslandBuses == nil {
		return fmt.Sprintf("EstimatePartial returned a survivors-only estimate, oracle says the survivors are rank-deficient (%s)", label)
	}
	if err != nil && !errors.Is(err, se.ErrUnobservable) {
		return fmt.Sprintf("EstimatePartial error (%s): %v", label, err)
	}

	res, err = est.EstimatePartial(t, zp, z)
	exact, observable = wlsOracle(g, t, plan, z)
	if !observable {
		if err == nil && res.IslandBuses == nil {
			return fmt.Sprintf("EstimatePartial returned a whole-system estimate, oracle says the plan is rank-deficient (%s)", label)
		}
		return ""
	}
	if err != nil || len(res.Pseudo) == 0 {
		return fmt.Sprintf("EstimatePartial did not fall back to pseudo-measurements on an observable plan (%s): %+v, %v", label, res, err)
	}
	return compareTheta(res, exact, "pseudo-measurements, "+label)
}

// compareTheta checks an estimate's angles against the oracle's.
func compareTheta(res *se.Result, exact *wlsExact, label string) string {
	for i := range res.Theta {
		want, _ := exact.theta[i].Float64()
		if relDiff(res.Theta[i], want) > 1e-6 {
			return fmt.Sprintf("WLS theta[%d] mismatch (%s): se %.12f vs oracle %.12f", i+1, label, res.Theta[i], want)
		}
	}
	return ""
}
