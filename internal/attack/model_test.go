package attack

import (
	"math"
	"strings"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/se"
	"gridattack/internal/smt"
)

// caseStudySetup returns the paper's 5-bus system at the case-study
// operating point.
func caseStudySetup(t *testing.T) (*grid.Grid, *grid.PowerFlow) {
	t.Helper()
	g := cases.Paper5Bus()
	pf, err := g.SolvePowerFlow(g.TrueTopology(), cases.Paper5OperatingDispatch())
	if err != nil {
		t.Fatalf("operating point: %v", err)
	}
	return g, pf
}

func TestCaseStudy1AttackVector(t *testing.T) {
	g, pf := caseStudySetup(t)
	plan := cases.Paper5PlanCase1()
	capability := Capability{
		MaxMeasurements:       8,
		MaxBuses:              3,
		States:                false,
		RequireTopologyChange: true,
	}
	m, err := NewModel(g, plan, capability, pf)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	v, err := m.FindVector()
	if err != nil {
		t.Fatalf("FindVector: %v", err)
	}
	if v == nil {
		t.Fatal("Case Study 1 attack vector must exist")
	}
	// The paper: line 6 is the only excludable line; measurements 6, 13,
	// 17, 18 need altering, residing at buses 3 and 4.
	if len(v.ExcludedLines) != 1 || v.ExcludedLines[0] != 6 {
		t.Errorf("excluded = %v, want [6]", v.ExcludedLines)
	}
	if len(v.IncludedLines) != 0 {
		t.Errorf("included = %v, want none (all lines in service)", v.IncludedLines)
	}
	wantAltered := []int{6, 13, 17, 18}
	if !equalInts(v.AlteredMeasurements, wantAltered) {
		t.Errorf("altered = %v, want %v", v.AlteredMeasurements, wantAltered)
	}
	if !equalInts(v.CompromisedBuses, []int{3, 4}) {
		t.Errorf("buses = %v, want [3 4]", v.CompromisedBuses)
	}
	if !v.TopologyOnly() {
		t.Errorf("states infected: %v, want none", v.InfectedStates)
	}
	if v.MappedTopology.Contains(6) {
		t.Error("mapped topology still contains line 6")
	}
	// Observed loads stay within the operator's plausible bounds.
	for _, ld := range g.Loads {
		got := v.ObservedLoads[ld.Bus-1]
		if got < ld.MinP-1e-9 || got > ld.MaxP+1e-9 {
			t.Errorf("bus %d observed load %v outside [%v, %v]", ld.Bus, got, ld.MinP, ld.MaxP)
		}
	}
	// Total observed load is unchanged (undetected attacks cannot change
	// total system loading, paper Sec. II-F).
	var total float64
	for _, l := range v.ObservedLoads {
		total += l
	}
	if math.Abs(total-g.TotalLoad()) > 1e-9 {
		t.Errorf("total observed load %v != %v", total, g.TotalLoad())
	}
}

// TestFindVectorRejectsSpoiledCertificate: an uncertified FindVector leaves
// gaps in the solver's proof trace, so a later certified FindVector cannot
// back its verdict and must return an error rather than the vector.
func TestFindVectorRejectsSpoiledCertificate(t *testing.T) {
	// Under the GRIDATTACK_CERTIFY lane every search certifies; pin the
	// default off so the uncertified search happens.
	defer smt.SetCertifyDefault(smt.SetCertifyDefault(false))
	g, pf := caseStudySetup(t)
	m, err := NewModel(g, cases.Paper5PlanCase1(), Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if v, err := m.FindVector(); err != nil || v == nil {
		t.Fatalf("uncertified FindVector = %v, %v; want the Case Study 1 vector", v, err)
	}
	m.Certify = true
	v, err := m.FindVector()
	if err == nil || !strings.Contains(err.Error(), "spoiled") {
		t.Fatalf("certified FindVector after an uncertified one = %v, %v; want a spoiled-certificate error", v, err)
	}
}

func TestCaseStudy1Stealthy(t *testing.T) {
	g, pf := caseStudySetup(t)
	plan := cases.Paper5PlanCase1()
	m, err := NewModel(g, plan, Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.FindVector()
	if err != nil || v == nil {
		t.Fatalf("FindVector: %v, %v", v, err)
	}
	// Replay against the real estimator: the poisoned measurements under the
	// poisoned topology must pass bad-data detection with residual ~0.
	z, err := BuildAttackedMeasurements(g, plan, pf, v)
	if err != nil {
		t.Fatalf("BuildAttackedMeasurements: %v", err)
	}
	est := se.NewEstimator(g, plan)
	est.Threshold = 1e-6
	res, err := est.Estimate(v.MappedTopology, z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if res.BadData {
		t.Errorf("attack detected: residual %v", res.Residual)
	}
	// The operator's load estimates equal the attack's intended loads.
	// LoadEstimate holds the bus consumption (load - generation), so add
	// the known generation back.
	dispatch := cases.Paper5OperatingDispatch()
	for _, ld := range g.Loads {
		got := res.LoadEstimate[ld.Bus-1] + dispatch[ld.Bus-1]
		if math.Abs(got-v.ObservedLoads[ld.Bus-1]) > 1e-7 {
			t.Errorf("bus %d: SE load %v != intended %v", ld.Bus, got, v.ObservedLoads[ld.Bus-1])
		}
	}
}

func TestCaseStudy2WithStates(t *testing.T) {
	g, pf := caseStudySetup(t)
	plan := cases.Paper5PlanCase2()
	capability := Capability{
		MaxMeasurements:       12,
		MaxBuses:              3,
		States:                true,
		RequireTopologyChange: true,
	}
	m, err := NewModel(g, plan, capability, pf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.FindVector()
	if err != nil {
		t.Fatalf("FindVector: %v", err)
	}
	if v == nil {
		t.Fatal("Case Study 2 attack vector must exist")
	}
	if len(v.AlteredMeasurements) > 12 {
		t.Errorf("altered %d measurements, budget 12", len(v.AlteredMeasurements))
	}
	if len(v.CompromisedBuses) > 3 {
		t.Errorf("compromised %d buses, budget 3", len(v.CompromisedBuses))
	}
	// Stealthiness replay with state infection.
	z, err := BuildAttackedMeasurements(g, plan, pf, v)
	if err != nil {
		t.Fatal(err)
	}
	est := se.NewEstimator(g, plan)
	est.Threshold = 1e-6
	res, err := est.Estimate(v.MappedTopology, z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if res.BadData {
		t.Errorf("attack detected: residual %v", res.Residual)
	}
	// Infected states must show up in the estimated angles.
	for _, bus := range v.InfectedStates {
		want := pf.Theta[bus-1] + v.DeltaTheta[bus-1]
		if math.Abs(res.Theta[bus-1]-want) > 1e-6 {
			t.Errorf("bus %d: estimated angle %v, want %v", bus, res.Theta[bus-1], want)
		}
	}
}

func TestNoAttackWhenEverythingSecured(t *testing.T) {
	g, pf := caseStudySetup(t)
	g2 := g.Clone()
	for i := range g2.Lines {
		g2.Lines[i].StatusSecured = true
	}
	plan := cases.Paper5PlanCase1()
	m, err := NewModel(g2, plan, Capability{RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.FindVector()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("attack found despite all statuses secured: %v", v)
	}
}

func TestMeasurementBudgetBinds(t *testing.T) {
	g, pf := caseStudySetup(t)
	plan := cases.Paper5PlanCase1()
	// CS1 needs 4 alterations; a budget of 3 must make it unsat.
	m, err := NewModel(g, plan, Capability{MaxMeasurements: 3, MaxBuses: 3, RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.FindVector()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("attack found with budget 3: %v (needs 4 alterations)", v)
	}
}

func TestBusBudgetBinds(t *testing.T) {
	g, pf := caseStudySetup(t)
	plan := cases.Paper5PlanCase1()
	m, err := NewModel(g, plan, Capability{MaxMeasurements: 8, MaxBuses: 1, RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.FindVector()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("attack found with single-bus budget: %v (needs buses 3 and 4)", v)
	}
}

func TestBlockExhaustsTopologyOnlySpace(t *testing.T) {
	g, pf := caseStudySetup(t)
	plan := cases.Paper5PlanCase1()
	m, err := NewModel(g, plan, Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		v, err := m.FindVector()
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			break
		}
		count++
		if count > 10 {
			t.Fatal("topology-only attack space on CS1 should be tiny")
		}
		m.Block(v, 0.01)
	}
	// Only line 6 is attackable and the deltas are fully determined, so
	// exactly one quantized vector exists.
	if count != 1 {
		t.Errorf("enumerated %d vectors, want 1", count)
	}
}

func TestInclusionAttack(t *testing.T) {
	// Open line 6 in the true topology; the attacker includes it.
	g := cases.Paper5Bus()
	g.Lines[5].InService = false
	// Operating point without line 6; this dispatch keeps the fabricated
	// line-6 flow small enough for the observed loads to stay plausible.
	pf, err := g.SolvePowerFlow(g.TrueTopology(), []float64{0.11, 0.59, 0.13, 0, 0})
	if err != nil {
		t.Fatalf("operating point without line 6: %v", err)
	}
	plan := cases.Paper5PlanCase2()
	m, err := NewModel(g, plan, Capability{MaxMeasurements: 12, MaxBuses: 3, RequireTopologyChange: true}, pf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.FindVector()
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("inclusion attack vector must exist")
	}
	if len(v.IncludedLines) != 1 || v.IncludedLines[0] != 6 {
		t.Errorf("included = %v, want [6]", v.IncludedLines)
	}
	if !v.MappedTopology.Contains(6) {
		t.Error("mapped topology must contain the included line")
	}
	// Replay: stealthy against SE under the poisoned topology.
	z, err := BuildAttackedMeasurements(g, plan, pf, v)
	if err != nil {
		t.Fatal(err)
	}
	est := se.NewEstimator(g, plan)
	est.Threshold = 1e-6
	res, err := est.Estimate(v.MappedTopology, z)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if res.BadData {
		t.Errorf("inclusion attack detected: residual %v", res.Residual)
	}
}

func TestModelInputValidation(t *testing.T) {
	g := cases.Paper5Bus()
	plan := cases.Paper5PlanCase1()
	if _, err := NewModel(g, plan, Capability{}, nil); err == nil {
		t.Error("want error for nil operating point")
	}
	wrongPlan := measure.NewPlan(3, 3)
	pf, err := g.SolvePowerFlow(g.TrueTopology(), cases.Paper5OperatingDispatch())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModel(g, wrongPlan, Capability{}, pf); err == nil {
		t.Error("want error for mismatched plan")
	}
}

func TestVectorString(t *testing.T) {
	v := &Vector{ExcludedLines: []int{6}, AlteredMeasurements: []int{1, 2}}
	if v.String() == "" {
		t.Error("String empty")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
