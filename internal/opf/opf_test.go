package opf

import (
	"errors"
	"math"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/dist"
	"gridattack/internal/grid"
)

func TestSolvePaper5Baseline(t *testing.T) {
	g := cases.Paper5Bus()
	sol, err := Solve(g, g.TrueTopology(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Dispatch must balance load.
	var gen float64
	for _, p := range sol.Dispatch {
		gen += p
	}
	if math.Abs(gen-g.TotalLoad()) > 1e-6 {
		t.Errorf("generation %v != load %v", gen, g.TotalLoad())
	}
	// Flows within capacity.
	for _, ln := range g.Lines {
		if f := math.Abs(sol.Flows[ln.ID-1]); f > ln.Capacity+1e-6 {
			t.Errorf("line %d flow %v exceeds capacity %v", ln.ID, f, ln.Capacity)
		}
	}
	// Generator limits.
	for _, gg := range g.Generators {
		p := sol.Dispatch[gg.Bus-1]
		if p < gg.MinP-1e-9 || p > gg.MaxP+1e-9 {
			t.Errorf("gen at bus %d output %v outside [%v, %v]", gg.Bus, p, gg.MinP, gg.MaxP)
		}
	}
	// The paper reports the attack-free optimum around $1520.
	if sol.Cost < 1300 || sol.Cost > 1700 {
		t.Errorf("baseline cost = %v, expected near the paper's ~1520", sol.Cost)
	}
	t.Logf("paper5 baseline OPF cost: %.2f", sol.Cost)
}

func TestExclusionRaisesCost(t *testing.T) {
	// The paper's Case Study 1 observation: excluding line 6 forces a more
	// expensive dispatch.
	g := cases.Paper5Bus()
	base, err := Solve(g, g.TrueTopology(), nil)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	attacked, err := Solve(g, g.TrueTopology().WithExcluded(6), nil)
	if err != nil {
		t.Fatalf("attacked: %v", err)
	}
	if attacked.Cost <= base.Cost {
		t.Errorf("excluding line 6 should raise cost: base %v, attacked %v", base.Cost, attacked.Cost)
	}
	t.Logf("cost increase from excluding line 6: %.2f%%", 100*(attacked.Cost-base.Cost)/base.Cost)
}

func TestSolveCustomLoads(t *testing.T) {
	g := cases.Paper5Bus()
	loads := g.LoadVector()
	loads[2] += 0.05
	loads[3] -= 0.05
	sol, err := Solve(g, g.TrueTopology(), loads)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var gen float64
	for _, p := range sol.Dispatch {
		gen += p
	}
	if math.Abs(gen-g.TotalLoad()) > 1e-6 {
		t.Errorf("generation %v != total %v", gen, g.TotalLoad())
	}
}

func TestSolveErrors(t *testing.T) {
	g := cases.Paper5Bus()
	if _, err := Solve(g, g.TrueTopology(), []float64{1}); err == nil {
		t.Error("want error for bad load length")
	}
	g2 := g.Clone()
	g2.Generators = nil
	if _, err := Solve(g2, g2.TrueTopology(), nil); !errors.Is(err, ErrNoGenerators) {
		t.Errorf("err = %v, want ErrNoGenerators", err)
	}
	// Disconnected topology.
	if _, err := Solve(g, grid.NewTopology([]int{1}), nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveInfeasibleLoads(t *testing.T) {
	g := cases.Paper5Bus()
	loads := g.LoadVector()
	for i := range loads {
		loads[i] *= 10 // far beyond generation capacity
	}
	if _, err := Solve(g, g.TrueTopology(), loads); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveIEEE14(t *testing.T) {
	g := cases.IEEE14Bus()
	sol, err := Solve(g, g.TrueTopology(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var gen float64
	for _, p := range sol.Dispatch {
		gen += p
	}
	if math.Abs(gen-g.TotalLoad()) > 1e-6 {
		t.Errorf("generation %v != load %v", gen, g.TotalLoad())
	}
}

func TestShiftFactorMatchesAngleFormulation(t *testing.T) {
	g := cases.Paper5Bus()
	top := g.TrueTopology()
	fac, err := dist.New(g, top)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(g, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	shift, err := SolveShift(g, fac, 0, nil)
	if err != nil {
		t.Fatalf("SolveShift: %v", err)
	}
	if math.Abs(exact.Cost-shift.Cost) > 1e-5*math.Max(1, exact.Cost) {
		t.Errorf("shift-factor cost %v != exact %v", shift.Cost, exact.Cost)
	}
}

func TestShiftFactorWithOutageMatchesExact(t *testing.T) {
	g := cases.Paper5Bus()
	top := g.TrueTopology()
	fac, err := dist.New(g, top)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Solve(g, top.WithExcluded(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	shift, err := SolveShift(g, fac, 6, nil)
	if err != nil {
		t.Fatalf("SolveShift outage: %v", err)
	}
	if math.Abs(exact.Cost-shift.Cost) > 1e-5*math.Max(1, exact.Cost) {
		t.Errorf("shift-factor outage cost %v != exact %v", shift.Cost, exact.Cost)
	}
	// Flows consistent with the exact model too.
	for i := range exact.Flows {
		if math.Abs(exact.Flows[i]-shift.Flows[i]) > 1e-5 {
			t.Errorf("line %d: shift flow %v != exact %v", i+1, shift.Flows[i], exact.Flows[i])
		}
	}
}

func TestFeasibleWithinAgreesWithLP(t *testing.T) {
	g := cases.Paper5Bus()
	top := g.TrueTopology()
	base, err := Solve(g, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Slack above the optimum: feasible.
	ok, dispatch, err := FeasibleWithin(g, top, nil, base.Cost*1.01, 0)
	if err != nil {
		t.Fatalf("FeasibleWithin: %v", err)
	}
	if !ok {
		t.Fatal("cost cap above optimum must be feasible")
	}
	var gen float64
	for _, p := range dispatch {
		gen += p
	}
	if math.Abs(gen-g.TotalLoad()) > 1e-6 {
		t.Errorf("witness dispatch imbalanced: %v vs %v", gen, g.TotalLoad())
	}
	// Below the optimum: infeasible.
	ok, _, err = FeasibleWithin(g, top, nil, base.Cost*0.99, 0)
	if err != nil {
		t.Fatalf("FeasibleWithin: %v", err)
	}
	if ok {
		t.Error("cost cap below the LP optimum must be unsat")
	}
}

// TestMinCostIncreaseCertified: a minimum cost increase is certified
// (Eq. 37) when FeasibleWithin finds no dispatch under the threshold.
func TestMinCostIncreaseCertified(t *testing.T) {
	g := cases.Paper5Bus()
	top := g.TrueTopology()
	base, err := Solve(g, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	feasible, _, err := FeasibleWithin(g, top, nil, base.Cost*0.95, 0)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Error("cost can never be 5% below the optimum")
	}
	feasible, _, err = FeasibleWithin(g, top, nil, base.Cost*1.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Error("a cap above the optimum must be achievable")
	}
}

func TestEncodeErrors(t *testing.T) {
	g := cases.Paper5Bus()
	if _, _, err := FeasibleWithin(g, g.TrueTopology(), []float64{1, 2}, 1000, 0); err == nil {
		t.Error("want error for bad load vector")
	}
	g2 := g.Clone()
	g2.Generators = nil
	if _, _, err := FeasibleWithin(g2, g2.TrueTopology(), nil, 1000, 0); !errors.Is(err, ErrNoGenerators) {
		t.Errorf("err = %v, want ErrNoGenerators", err)
	}
}
