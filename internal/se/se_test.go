package se

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

func solved5Bus(t *testing.T) (*grid.Grid, *measure.Plan, *grid.PowerFlow) {
	t.Helper()
	g := cases.Paper5Bus()
	// A balanced dispatch: total load 0.83 split across the three gens.
	gen := make([]float64, g.NumBuses())
	gen[0], gen[1], gen[2] = 0.23, 0.10, 0.50
	pf, err := g.SolvePowerFlow(g.TrueTopology(), gen)
	if err != nil {
		t.Fatalf("SolvePowerFlow: %v", err)
	}
	return g, measure.FullPlan(g.NumLines(), g.NumBuses()), pf
}

func TestEstimateRecoversExactState(t *testing.T) {
	g, plan, pf := solved5Bus(t)
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatalf("FromPowerFlow: %v", err)
	}
	est := NewEstimator(g, plan)
	res, err := est.Estimate(g.TrueTopology(), z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	for i := range res.Theta {
		if math.Abs(res.Theta[i]-pf.Theta[i]) > 1e-9 {
			t.Errorf("theta[%d] = %v, want %v", i, res.Theta[i], pf.Theta[i])
		}
	}
	if res.Residual > 1e-9 {
		t.Errorf("residual = %v, want ~0 for exact measurements", res.Residual)
	}
	if res.BadData {
		t.Error("exact measurements must not trigger bad-data detection")
	}
	// Estimated loads at load buses match the true loads.
	for _, ld := range g.Loads {
		gen, _ := g.GeneratorAt(ld.Bus)
		want := ld.P - genOutput(gen, ld.Bus, []float64{0.23, 0.10, 0.50, 0, 0})
		if math.Abs(res.LoadEstimate[ld.Bus-1]-want) > 1e-9 {
			t.Errorf("load estimate bus %d = %v, want %v", ld.Bus, res.LoadEstimate[ld.Bus-1], want)
		}
	}
}

func genOutput(gen grid.Generator, bus int, dispatch []float64) float64 {
	if gen.Bus == bus {
		return dispatch[bus-1]
	}
	return 0
}

func TestEstimateWithNoise(t *testing.T) {
	g, plan, pf := solved5Bus(t)
	rng := rand.New(rand.NewSource(3))
	z, err := plan.FromPowerFlow(g, pf, 0.002, rng)
	if err != nil {
		t.Fatalf("FromPowerFlow: %v", err)
	}
	est := NewEstimator(g, plan)
	res, err := est.Estimate(g.TrueTopology(), z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	for i := range res.Theta {
		if math.Abs(res.Theta[i]-pf.Theta[i]) > 0.01 {
			t.Errorf("theta[%d] = %v, too far from %v", i, res.Theta[i], pf.Theta[i])
		}
	}
	if res.BadData {
		t.Error("small Gaussian noise should pass the chi-square test")
	}
}

func TestGrossErrorDetected(t *testing.T) {
	g, plan, pf := solved5Bus(t)
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatalf("FromPowerFlow: %v", err)
	}
	z.Values[1] += 0.5 // gross error on measurement 1
	est := NewEstimator(g, plan)
	est.Threshold = 0.05
	res, err := est.Estimate(g.TrueTopology(), z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if !res.BadData {
		t.Error("gross error must be detected")
	}
	if res.SuspectMeasurement != 1 {
		t.Errorf("suspect = %d, want 1", res.SuspectMeasurement)
	}
}

func TestStealthyInjectionUndetected(t *testing.T) {
	// The classical UFDI construction: a = H*c leaves the residual
	// unchanged. Perturb the state by c and rebuild all measurements
	// consistently; detection must not fire even with a tight threshold.
	g, plan, pf := solved5Bus(t)
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatalf("FromPowerFlow: %v", err)
	}
	theta2 := append([]float64(nil), pf.Theta...)
	theta2[2] += 0.01 // infect state at bus 3
	flows2, err := g.FlowsFromTheta(g.TrueTopology(), theta2)
	if err != nil {
		t.Fatal(err)
	}
	cons2, err := g.ConsumptionFromFlows(g.TrueTopology(), flows2)
	if err != nil {
		t.Fatal(err)
	}
	for line := 1; line <= g.NumLines(); line++ {
		z.Values[plan.ForwardIndex(line)] = flows2[line-1]
		z.Values[plan.BackwardIndex(line)] = -flows2[line-1]
	}
	for bus := 1; bus <= g.NumBuses(); bus++ {
		z.Values[plan.ConsumptionIndex(bus)] = cons2[bus-1]
	}
	est := NewEstimator(g, plan)
	est.Threshold = 1e-6
	res, err := est.Estimate(g.TrueTopology(), z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if res.BadData {
		t.Errorf("stealthy injection detected (residual %v)", res.Residual)
	}
	if math.Abs(res.Theta[2]-theta2[2]) > 1e-9 {
		t.Errorf("estimator did not absorb the injected state change: %v vs %v", res.Theta[2], theta2[2])
	}
}

func TestUnobservable(t *testing.T) {
	g, _, pf := solved5Bus(t)
	plan := measure.NewPlan(g.NumLines(), g.NumBuses())
	plan.Taken[1] = true // single measurement cannot observe 4 states
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(g, plan)
	if _, err := est.Estimate(g.TrueTopology(), z); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
	ok, err := est.Observable(g.TrueTopology())
	if err != nil || ok {
		t.Errorf("Observable = %v, %v; want false, nil", ok, err)
	}
	full := NewEstimator(g, measure.FullPlan(g.NumLines(), g.NumBuses()))
	ok, err = full.Observable(g.TrueTopology())
	if err != nil || !ok {
		t.Errorf("full plan Observable = %v, %v; want true, nil", ok, err)
	}
}

func TestMissingMeasurementValue(t *testing.T) {
	g, plan, _ := solved5Bus(t)
	est := NewEstimator(g, plan)
	z := measure.NewVector(plan.M()) // nothing present
	if _, err := est.Estimate(g.TrueTopology(), z); err == nil {
		t.Fatal("want error for absent measurement values")
	}
}

func TestWeightsRespected(t *testing.T) {
	g, plan, pf := solved5Bus(t)
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	z.Values[1] += 0.2 // corrupt measurement 1
	est := NewEstimator(g, plan)
	est.Weights = make([]float64, plan.M()+1)
	for i := range est.Weights {
		est.Weights[i] = 1
	}
	est.Weights[1] = 1e-6 // nearly ignore the corrupted measurement
	res, err := est.Estimate(g.TrueTopology(), z)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Theta {
		if math.Abs(res.Theta[i]-pf.Theta[i]) > 1e-3 {
			t.Errorf("downweighted gross error should barely move theta[%d]: %v vs %v", i, res.Theta[i], pf.Theta[i])
		}
	}
}

func TestChiSquare95(t *testing.T) {
	// Reference values (R qchisq(0.95, df)).
	refs := map[int]float64{1: 3.841, 5: 11.070, 10: 18.307, 30: 43.773}
	for df, want := range refs {
		if got := chiSquare95(df); math.Abs(got-want) > want*0.02 {
			t.Errorf("chiSquare95(%d) = %v, want ~%v", df, got, want)
		}
	}
}

// Property: estimation from exact measurements generated under any balanced
// dispatch recovers the state on the IEEE 14-bus system.
func TestEstimateRoundTripProperty(t *testing.T) {
	g := cases.IEEE14Bus()
	plan := measure.FullPlan(g.NumLines(), g.NumBuses())
	est := NewEstimator(g, plan)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := g.TotalLoad()
		// Random dispatch over the generators summing to the load.
		weights := make([]float64, len(g.Generators))
		var wsum float64
		for i := range weights {
			weights[i] = rng.Float64() + 0.1
			wsum += weights[i]
		}
		gen := make([]float64, g.NumBuses())
		for i, gg := range g.Generators {
			gen[gg.Bus-1] = total * weights[i] / wsum
		}
		pf, err := g.SolvePowerFlow(g.TrueTopology(), gen)
		if err != nil {
			return false
		}
		z, err := plan.FromPowerFlow(g, pf, 0, nil)
		if err != nil {
			return false
		}
		res, err := est.Estimate(g.TrueTopology(), z)
		if err != nil {
			return false
		}
		for i := range res.Theta {
			if math.Abs(res.Theta[i]-pf.Theta[i]) > 1e-8 {
				return false
			}
		}
		return res.Residual < 1e-8 && !res.BadData
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSparseBackendUnobservable: a singular gain matrix must classify as
// ErrUnobservable, in Estimate and in Observable alike, even when there are
// as many measurements as states.
func TestSparseBackendUnobservable(t *testing.T) {
	g, _, pf := solved5Bus(t)
	// Both flows of lines 1 and 2: four measurements of rank 2 cannot
	// determine 4 states.
	plan := measure.NewPlan(g.NumLines(), g.NumBuses())
	for _, line := range []int{1, 2} {
		plan.Taken[plan.ForwardIndex(line)] = true
		plan.Taken[plan.BackwardIndex(line)] = true
	}
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(g, plan)
	if _, err := est.Estimate(g.TrueTopology(), z); !errors.Is(err, ErrUnobservable) {
		t.Fatalf("err = %v, want ErrUnobservable", err)
	}
	if ok, err := est.Observable(g.TrueTopology()); err != nil || ok {
		t.Fatalf("Observable = %v, %v; want false, nil", ok, err)
	}
}
