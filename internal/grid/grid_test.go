package grid

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// testGrid returns a small 3-bus triangle used across tests.
func testGrid() *Grid {
	return &Grid{
		Name:   "tri",
		RefBus: 1,
		Buses: []Bus{
			{ID: 1, HasGenerator: true},
			{ID: 2, HasLoad: true},
			{ID: 3, HasLoad: true},
		},
		Lines: []Line{
			{ID: 1, From: 1, To: 2, Admittance: 10, Capacity: 1, InService: true},
			{ID: 2, From: 2, To: 3, Admittance: 5, Capacity: 1, InService: true},
			{ID: 3, From: 1, To: 3, Admittance: 8, Capacity: 1, InService: true},
		},
		Generators: []Generator{{Bus: 1, MaxP: 2, MinP: 0, Alpha: 10, Beta: 100}},
		Loads: []Load{
			{Bus: 2, P: 0.4, MaxP: 0.6, MinP: 0.2},
			{Bus: 3, P: 0.3, MaxP: 0.5, MinP: 0.1},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testGrid().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Grid)
	}{
		{"no buses", func(g *Grid) { g.Buses = nil }},
		{"bad bus id", func(g *Grid) { g.Buses[1].ID = 7 }},
		{"bad ref", func(g *Grid) { g.RefBus = 9 }},
		{"bad line id", func(g *Grid) { g.Lines[0].ID = 5 }},
		{"line bus range", func(g *Grid) { g.Lines[0].To = 12 }},
		{"self loop", func(g *Grid) { g.Lines[0].To = g.Lines[0].From }},
		{"neg admittance", func(g *Grid) { g.Lines[0].Admittance = -1 }},
		{"zero capacity", func(g *Grid) { g.Lines[0].Capacity = 0 }},
		{"gen bus", func(g *Grid) { g.Generators[0].Bus = 99 }},
		{"gen limits", func(g *Grid) { g.Generators[0].MinP = 3 }},
		{"load bus", func(g *Grid) { g.Loads[0].Bus = 0 }},
		{"load limits", func(g *Grid) { g.Loads[0].MinP = 1 }},
	}
	for _, tc := range cases {
		g := testGrid()
		tc.mutate(g)
		if err := g.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	g := testGrid()
	if g.NumBuses() != 3 || g.NumLines() != 3 || g.NumMeasurements() != 9 {
		t.Errorf("dims: %d buses %d lines %d meas", g.NumBuses(), g.NumLines(), g.NumMeasurements())
	}
	if _, ok := g.GeneratorAt(1); !ok {
		t.Error("GeneratorAt(1) missing")
	}
	if _, ok := g.GeneratorAt(2); ok {
		t.Error("GeneratorAt(2) should be absent")
	}
	if ld, ok := g.LoadAt(2); !ok || ld.P != 0.4 {
		t.Errorf("LoadAt(2) = %+v, %v", ld, ok)
	}
	if math.Abs(g.TotalLoad()-0.7) > 1e-12 {
		t.Errorf("TotalLoad = %v, want 0.7", g.TotalLoad())
	}
	lv := g.LoadVector()
	if lv[0] != 0 || lv[1] != 0.4 || lv[2] != 0.3 {
		t.Errorf("LoadVector = %v", lv)
	}
	gen := g.Generators[0]
	if c := gen.Cost(1); c != 110 {
		t.Errorf("Cost(1) = %v, want 110", c)
	}
}

func TestTopologyOps(t *testing.T) {
	g := testGrid()
	top := g.TrueTopology()
	if top.Size() != 3 {
		t.Fatalf("Size = %d, want 3", top.Size())
	}
	ex := top.WithExcluded(2)
	if ex.Contains(2) || ex.Size() != 2 {
		t.Error("WithExcluded failed")
	}
	if top.Size() != 3 {
		t.Error("WithExcluded mutated the source topology")
	}
	in := ex.WithIncluded(2)
	if !in.Contains(2) {
		t.Error("WithIncluded failed")
	}
	lines := top.Lines()
	if len(lines) != 3 || lines[0] != 1 || lines[2] != 3 {
		t.Errorf("Lines = %v", lines)
	}
}

func TestConnected(t *testing.T) {
	g := testGrid()
	if !g.Connected(g.TrueTopology()) {
		t.Error("triangle should be connected")
	}
	// Removing two of three lines isolates a bus.
	top := NewTopology([]int{1})
	if g.Connected(top) {
		t.Error("single line 1-2 leaves bus 3 disconnected")
	}
}

func TestClone(t *testing.T) {
	g := testGrid()
	c := g.Clone()
	c.Lines[0].Admittance = 99
	c.Loads[0].P = 9
	if g.Lines[0].Admittance == 99 || g.Loads[0].P == 9 {
		t.Error("Clone aliases underlying slices")
	}
}

// TestAppendBitsSeesEveryField: a clone appends the same bits, and a
// change to any field of the grid but Name, or of any of its buses, lines,
// generators and loads, appends different ones.
func TestAppendBitsSeesEveryField(t *testing.T) {
	g := testGrid()
	want := g.AppendBits(nil)
	c := g.Clone()
	c.Name = "renamed"
	if !bytes.Equal(c.AppendBits(nil), want) {
		t.Fatal("a clone appends different bits")
	}
	nudge := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		default:
			t.Fatalf("no nudge for a %s field", v.Kind())
		}
	}
	c = g.Clone()
	nudge(reflect.ValueOf(c).Elem().FieldByName("RefBus"))
	if bytes.Equal(c.AppendBits(nil), want) {
		t.Error("RefBus: same bits")
	}
	for _, slice := range []string{"Buses", "Lines", "Generators", "Loads"} {
		elem := reflect.ValueOf(g).Elem().FieldByName(slice).Index(0)
		for f := 0; f < elem.NumField(); f++ {
			c := g.Clone()
			nudge(reflect.ValueOf(c).Elem().FieldByName(slice).Index(0).Field(f))
			if bytes.Equal(c.AppendBits(nil), want) {
				t.Errorf("%s[0].%s: same bits", slice, elem.Type().Field(f).Name)
			}
		}
	}
}

func TestConnectivityMatrix(t *testing.T) {
	g := testGrid()
	a := g.ConnectivityMatrix(g.TrueTopology())
	if a.At(0, 0) != 1 || a.At(0, 1) != -1 {
		t.Errorf("row 0 = %v %v", a.At(0, 0), a.At(0, 1))
	}
	// Excluded line rows must be zero.
	a2 := g.ConnectivityMatrix(NewTopology([]int{1, 3}))
	if a2.At(1, 1) != 0 || a2.At(1, 2) != 0 {
		t.Error("excluded line row should be zero")
	}
}

func TestMeasurementMatrixShapeAndContent(t *testing.T) {
	g := testGrid()
	h, err := g.MeasurementMatrix(g.TrueTopology())
	if err != nil {
		t.Fatalf("MeasurementMatrix: %v", err)
	}
	if h.Rows() != 9 || h.Cols() != 3 {
		t.Fatalf("H is %dx%d, want 9x3", h.Rows(), h.Cols())
	}
	// Forward flow of line 1 (1->2, d=10): row 0 = [10, -10, 0].
	if h.At(0, 0) != 10 || h.At(0, 1) != -10 || h.At(0, 2) != 0 {
		t.Errorf("row 0 = %v %v %v", h.At(0, 0), h.At(0, 1), h.At(0, 2))
	}
	// Backward row is the negation.
	if h.At(3, 0) != -10 {
		t.Errorf("backward row wrong: %v", h.At(3, 0))
	}
	red, err := g.ReducedMeasurementMatrix(g.TrueTopology())
	if err != nil {
		t.Fatalf("ReducedMeasurementMatrix: %v", err)
	}
	if red.Rows() != 9 || red.Cols() != 2 {
		t.Fatalf("reduced H is %dx%d, want 9x2", red.Rows(), red.Cols())
	}
}

func TestBMatrix(t *testing.T) {
	g := testGrid()
	b := g.BMatrix(g.TrueTopology())
	// Reduced over buses 2,3: diag = [10+5, 5+8], offdiag = -5.
	if b.At(0, 0) != 15 || b.At(1, 1) != 13 || b.At(0, 1) != -5 || b.At(1, 0) != -5 {
		t.Errorf("B = %v", b)
	}
}

func TestSolvePowerFlowBalance(t *testing.T) {
	g := testGrid()
	gen := []float64{0.7, 0, 0}
	pf, err := g.SolvePowerFlow(g.TrueTopology(), gen)
	if err != nil {
		t.Fatalf("SolvePowerFlow: %v", err)
	}
	// KCL at every bus: consumption == load - generation.
	cons, err := g.ConsumptionFromFlows(g.TrueTopology(), pf.LineFlow)
	if err != nil {
		t.Fatalf("ConsumptionFromFlows: %v", err)
	}
	loads := g.LoadVector()
	for i := range cons {
		want := loads[i] - gen[i]
		if math.Abs(cons[i]-want) > 1e-9 {
			t.Errorf("bus %d consumption = %v, want %v", i+1, cons[i], want)
		}
	}
	// Reference angle is zero.
	if pf.Theta[0] != 0 {
		t.Errorf("theta_ref = %v, want 0", pf.Theta[0])
	}
	// Flows follow from angles.
	flows, err := g.FlowsFromTheta(g.TrueTopology(), pf.Theta)
	if err != nil {
		t.Fatalf("FlowsFromTheta: %v", err)
	}
	for i := range flows {
		if math.Abs(flows[i]-pf.LineFlow[i]) > 1e-9 {
			t.Errorf("flow %d mismatch", i+1)
		}
	}
	// Consumption() is the negated injection.
	c := pf.Consumption()
	for i := range c {
		if c[i] != -pf.Injection[i] {
			t.Error("Consumption sign wrong")
		}
	}
}

func TestSolvePowerFlowImbalance(t *testing.T) {
	g := testGrid()
	if _, err := g.SolvePowerFlow(g.TrueTopology(), []float64{5, 0, 0}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid for imbalance", err)
	}
	if _, err := g.SolvePowerFlow(g.TrueTopology(), []float64{0.7}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid for wrong length", err)
	}
}

func TestSolvePowerFlowDisconnected(t *testing.T) {
	g := testGrid()
	top := NewTopology([]int{1}) // bus 3 isolated
	_, err := g.SolvePowerFlowInjections(top, []float64{0.7, -0.4, -0.3})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid for disconnected topology", err)
	}
}

func TestPowerFlowLineExclusion(t *testing.T) {
	g := testGrid()
	top := g.TrueTopology().WithExcluded(2)
	pf, err := g.SolvePowerFlow(top, []float64{0.7, 0, 0})
	if err != nil {
		t.Fatalf("SolvePowerFlow: %v", err)
	}
	if pf.LineFlow[1] != 0 {
		t.Errorf("excluded line flow = %v, want 0", pf.LineFlow[1])
	}
	// All of bus 3's load now flows over line 3.
	if math.Abs(pf.LineFlow[2]-0.3) > 1e-9 {
		t.Errorf("line 3 flow = %v, want 0.3", pf.LineFlow[2])
	}
}

// Property: on random connected grids with random balanced injections, the
// power-flow solution satisfies KCL at every bus and flows sum to zero
// around every cycle (implied by the angle formulation, checked via
// FlowsFromTheta equivalence).
func TestPowerFlowKCLProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 3 + rng.Intn(8)
		g := &Grid{Name: "rand", RefBus: 1}
		for id := 1; id <= b; id++ {
			g.Buses = append(g.Buses, Bus{ID: id})
		}
		id := 1
		for i := 1; i <= b; i++ {
			to := i%b + 1
			g.Lines = append(g.Lines, Line{
				ID: id, From: i, To: to,
				Admittance: 1 + rng.Float64()*20, Capacity: 10, InService: true,
			})
			id++
		}
		// A couple of chords.
		for k := 0; k < 2; k++ {
			f1, t1 := rng.Intn(b)+1, rng.Intn(b)+1
			if f1 == t1 {
				continue
			}
			g.Lines = append(g.Lines, Line{
				ID: id, From: f1, To: t1,
				Admittance: 1 + rng.Float64()*20, Capacity: 10, InService: true,
			})
			id++
		}
		inj := make([]float64, b)
		var sum float64
		for i := 1; i < b; i++ {
			inj[i] = rng.NormFloat64() * 0.3
			sum += inj[i]
		}
		inj[0] = -sum
		pf, err := g.SolvePowerFlowInjections(g.TrueTopology(), inj)
		if err != nil {
			return false
		}
		cons, err := g.ConsumptionFromFlows(g.TrueTopology(), pf.LineFlow)
		if err != nil {
			return false
		}
		for i := range cons {
			if math.Abs(cons[i]+inj[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
