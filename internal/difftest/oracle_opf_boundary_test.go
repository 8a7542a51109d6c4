package difftest

import (
	"math"
	"testing"

	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

// boundarySystem is the in-memory shape of difftest case seed
// 7820356793992436973 after shrinking: a single load one ULP above the only
// line's capacity. Exactly infeasible, float-LP feasible — no robust verdict
// exists inside the float noise band.
func boundarySystem() *System {
	load := math.Nextafter(0.41, 1) // 0.41000000000000003
	g := &grid.Grid{
		Name: "ulp-boundary",
		Buses: []grid.Bus{
			{ID: 1, HasLoad: true},
			{ID: 2, HasGenerator: true},
		},
		Lines: []grid.Line{{
			ID: 1, From: 1, To: 2, Admittance: 1.5, Capacity: 0.41,
			InService: true, CanAlterStatus: true, AdmittanceKnown: true,
		}},
		Generators: []grid.Generator{{Bus: 2, MaxP: 0.8316, Alpha: 25, Beta: 4200}},
		Loads:      []grid.Load{{Bus: 1, P: load, MaxP: 1.5 * load, MinP: 0.5 * load}},
		RefBus:     1,
	}
	return &System{Grid: g, Plan: measure.FullPlan(g.NumLines(), g.NumBuses())}
}

// TestOPFBoundaryDegenerateNotCharged: the exact oracle rightly calls the
// one-ULP-over system infeasible while the float64 LP rightly (within its
// tolerance) solves it; the comparison must recognize the verdict flips
// within opfBoundaryBand and charge no discrepancy. Regression for a real
// sweep failure (seed above) surfaced when the expr layer shifted the
// generator's RNG stream.
func TestOPFBoundaryDegenerateNotCharged(t *testing.T) {
	sys := boundarySystem()
	topo := sys.Grid.TrueTopology()

	res, err := opfOracle(sys.Grid, topo, nil)
	if err != nil {
		t.Fatalf("opfOracle: %v", err)
	}
	if res.feasible {
		t.Fatal("exact oracle should call the one-ULP-over system infeasible")
	}
	if robustVerdict(sys.Grid, topo, nil, 1) {
		t.Fatal("infeasible verdict should not be robust under +band relaxation")
	}
	if d := checkOPF(sys); d != "" {
		t.Fatalf("boundary-degenerate system charged as discrepancy: %s", d)
	}
}

// TestOPFRobustInfeasibleStillCharged: a load far beyond capacity with no
// local generation is robustly infeasible — the band must not swallow real
// infeasibility (the guard only forgives ULP-scale margins).
func TestOPFRobustInfeasibleStillCharged(t *testing.T) {
	sys := boundarySystem()
	sys.Grid.Loads[0].P = 0.8 // ~2x the 0.41 line capacity
	topo := sys.Grid.TrueTopology()
	res, err := opfOracle(sys.Grid, topo, nil)
	if err != nil {
		t.Fatalf("opfOracle: %v", err)
	}
	if res.feasible {
		t.Fatal("oracle should call 2x-overload infeasible")
	}
	if !robustVerdict(sys.Grid, topo, nil, 1) {
		t.Fatal("genuine infeasibility must survive the +band relaxation")
	}
}
