package se

import (
	"errors"
	"math"
	"testing"

	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

// degradedSetup returns the 5-bus system with a full plan, exact telemetry,
// and a fault-free reference estimate.
func degradedSetup(t *testing.T) (*grid.Grid, *measure.Plan, *measure.Vector, *Result) {
	t.Helper()
	g, plan, pf := solved5Bus(t)
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatalf("FromPowerFlow: %v", err)
	}
	est := NewEstimator(g, plan)
	ref, err := est.Estimate(g.TrueTopology(), z)
	if err != nil {
		t.Fatalf("reference Estimate: %v", err)
	}
	return g, plan, z, ref
}

// drop returns a copy of z with the given measurements absent.
func drop(z *measure.Vector, idx ...int) *measure.Vector {
	out := z.Clone()
	for _, i := range idx {
		out.Present[i] = false
		out.Values[i] = 0
	}
	return out
}

// busMeasurements lists every taken measurement residing at the bus.
func busMeasurements(g *grid.Grid, plan *measure.Plan, bus int) []int {
	var out []int
	for i := 1; i <= plan.M(); i++ {
		if plan.Taken[i] && plan.BusOf(i, g) == bus {
			out = append(out, i)
		}
	}
	return out
}

// TestEstimatePartialComplete: with nothing missing the result must be
// bit-for-bit the plain Estimate and carry no degraded annotations.
func TestEstimatePartialComplete(t *testing.T) {
	g, plan, z, ref := degradedSetup(t)
	est := NewEstimator(g, plan)
	res, err := est.EstimatePartial(g.TrueTopology(), z, nil)
	if err != nil {
		t.Fatalf("EstimatePartial: %v", err)
	}
	if res.Degraded || res.Missing != nil || res.Pseudo != nil || res.IslandBuses != nil {
		t.Errorf("complete telemetry flagged degraded: %+v", res)
	}
	for i := range ref.Theta {
		if res.Theta[i] != ref.Theta[i] {
			t.Errorf("theta[%d] = %v, want %v (bit-identical)", i, res.Theta[i], ref.Theta[i])
		}
	}
	if res.Residual != ref.Residual {
		t.Errorf("residual %v != reference %v", res.Residual, ref.Residual)
	}
}

// TestEstimatePartialSurvivors: the full plan is highly redundant, so
// losing one bus's telemetry keeps the system observable; the estimate
// must come from the survivors alone (no pseudo-measurements) and still
// recover the exact state.
func TestEstimatePartialSurvivors(t *testing.T) {
	g, plan, z, ref := degradedSetup(t)
	lost := busMeasurements(g, plan, 4)
	if len(lost) == 0 {
		t.Fatal("bus 4 owns no measurements; test setup broken")
	}
	est := NewEstimator(g, plan)
	res, err := est.EstimatePartial(g.TrueTopology(), drop(z, lost...), nil)
	if err != nil {
		t.Fatalf("EstimatePartial: %v", err)
	}
	if !res.Degraded {
		t.Error("missing telemetry must flag the estimate degraded")
	}
	if len(res.Missing) != len(lost) {
		t.Errorf("Missing = %v, want the %d lost measurements", res.Missing, len(lost))
	}
	if res.Pseudo != nil || res.IslandBuses != nil {
		t.Errorf("survivor solve must not use pseudo/island fallbacks: %+v", res)
	}
	// Exact telemetry: the surviving subset still pins the exact state.
	for i := range ref.Theta {
		if math.Abs(res.Theta[i]-ref.Theta[i]) > 1e-9 {
			t.Errorf("theta[%d] = %v, want %v", i, res.Theta[i], ref.Theta[i])
		}
	}
}

// TestEstimatePartialPseudoFallback: with a sparse plan, losing an RTU
// makes the system unobservable; the last good snapshot must restore
// observability via down-weighted pseudo-measurements.
func TestEstimatePartialPseudoFallback(t *testing.T) {
	g, _, z, ref := degradedSetup(t)
	// Keep only the forward flows: barely redundant, so losing the flows
	// metered at bus 2 breaks observability of the remaining set.
	sparse := measure.NewPlan(g.NumLines(), g.NumBuses())
	for l := 1; l <= g.NumLines(); l++ {
		sparse.Taken[sparse.ForwardIndex(l)] = true
	}
	zs := measure.NewVector(sparse.M())
	for i := 1; i <= sparse.M(); i++ {
		if sparse.Taken[i] {
			zs.Values[i] = z.Values[i]
			zs.Present[i] = true
		}
	}
	// Lose the RTUs of buses 2 and 3: their metered flows (lines 3-6)
	// disconnect bus 3 from the surviving measurement graph.
	lost := append(busMeasurements(g, sparse, 2), busMeasurements(g, sparse, 3)...)
	if len(lost) == 0 {
		t.Fatal("buses 2-3 own no sparse-plan measurements; test setup broken")
	}
	est := NewEstimator(g, sparse)
	partial := drop(zs, lost...)

	survivors := measure.NewPlan(g.NumLines(), g.NumBuses())
	for i := 1; i <= sparse.M(); i++ {
		survivors.Taken[i] = partial.Present[i]
	}
	if ok, err := NewEstimator(g, survivors).Observable(g.TrueTopology()); err != nil || ok {
		t.Fatalf("survivors unexpectedly observable (ok=%v, err=%v); scenario broken", ok, err)
	}
	// Without a snapshot and with no observable island, estimation fails.
	if _, err := est.EstimatePartial(g.TrueTopology(), partial, nil); err == nil {
		t.Log("island solve absorbed the loss; pseudo path tested below anyway")
	}
	res, err := est.EstimatePartial(g.TrueTopology(), partial, zs)
	if err != nil {
		t.Fatalf("EstimatePartial with last-good snapshot: %v", err)
	}
	if !res.Degraded || len(res.Pseudo) == 0 {
		t.Fatalf("want pseudo-measurement fallback, got %+v", res)
	}
	for _, i := range res.Pseudo {
		if partial.Present[i] {
			t.Errorf("measurement %d is live but was marked pseudo", i)
		}
	}
	// The snapshot carries the exact pre-fault values, so the estimate must
	// still land on the true state (to solver precision).
	for i := range ref.Theta {
		if math.Abs(res.Theta[i]-ref.Theta[i]) > 1e-6 {
			t.Errorf("theta[%d] = %v, want %v", i, res.Theta[i], ref.Theta[i])
		}
	}
}

// TestEstimatePartialIsland: a 3-bus chain losing everything that touches
// the far end must still solve the island around the reference bus.
func TestEstimatePartialIsland(t *testing.T) {
	g := &grid.Grid{
		Name: "chain3",
		Buses: []grid.Bus{
			{ID: 1}, {ID: 2}, {ID: 3},
		},
		Lines: []grid.Line{
			{ID: 1, From: 1, To: 2, Admittance: 10, Capacity: 1, InService: true},
			{ID: 2, From: 2, To: 3, Admittance: 10, Capacity: 1, InService: true},
		},
		RefBus: 1,
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("chain grid invalid: %v", err)
	}
	plan := measure.FullPlan(g.NumLines(), g.NumBuses())
	theta := []float64{0, -0.02, -0.05}
	tt := g.TrueTopology()
	flows, err := g.FlowsFromTheta(tt, theta)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.ConsumptionFromFlows(tt, flows)
	if err != nil {
		t.Fatal(err)
	}
	z := measure.NewVector(plan.M())
	for l := 1; l <= g.NumLines(); l++ {
		z.Values[plan.ForwardIndex(l)] = flows[l-1]
		z.Present[plan.ForwardIndex(l)] = true
		z.Values[plan.BackwardIndex(l)] = -flows[l-1]
		z.Present[plan.BackwardIndex(l)] = true
	}
	for b := 1; b <= g.NumBuses(); b++ {
		z.Values[plan.ConsumptionIndex(b)] = cons[b-1]
		z.Present[plan.ConsumptionIndex(b)] = true
	}

	// Lose everything involving bus 3: line 2's flows, plus the
	// consumptions of buses 2 and 3 (their rows have support on theta_3).
	partial := drop(z,
		plan.ForwardIndex(2), plan.BackwardIndex(2),
		plan.ConsumptionIndex(2), plan.ConsumptionIndex(3),
	)
	est := NewEstimator(g, plan)
	res, err := est.EstimatePartial(tt, partial, nil)
	if err != nil {
		t.Fatalf("EstimatePartial: %v", err)
	}
	if !res.Degraded {
		t.Error("island estimate must be flagged degraded")
	}
	if len(res.IslandBuses) != 2 || res.IslandBuses[0] != 1 || res.IslandBuses[1] != 2 {
		t.Fatalf("IslandBuses = %v, want [1 2]", res.IslandBuses)
	}
	if math.Abs(res.Theta[1]-theta[1]) > 1e-9 {
		t.Errorf("island theta_2 = %v, want %v", res.Theta[1], theta[1])
	}
	if res.Theta[2] != 0 {
		t.Errorf("unobserved theta_3 = %v, want 0 (unknown)", res.Theta[2])
	}
}

// TestEstimatePartialUnobservable: no survivors, no snapshot, no island —
// the estimator must fail with ErrUnobservable, not fabricate a state.
func TestEstimatePartialUnobservable(t *testing.T) {
	g, plan, z, _ := degradedSetup(t)
	all := make([]int, 0, plan.M())
	for i := 1; i <= plan.M(); i++ {
		if plan.Taken[i] {
			all = append(all, i)
		}
	}
	_, err := NewEstimator(g, plan).EstimatePartial(g.TrueTopology(), drop(z, all...), nil)
	if !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
}
