package se

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

// bitEqual is reflect.DeepEqual with floats compared by their bits, so -0
// and +0 differ and a NaN equals itself.
func bitEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !bitEqual(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("bitEqual: unsupported kind " + a.Kind().String())
}

// reuseGrid is a triangle 1-2-3 with a spur 3-4: losing the spur's
// telemetry leaves the triangle an observable island.
func reuseGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g := &grid.Grid{
		Name:  "triangle-spur",
		Buses: []grid.Bus{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}},
		Lines: []grid.Line{
			{ID: 1, From: 1, To: 2, Admittance: 10, Capacity: 1, InService: true},
			{ID: 2, From: 2, To: 3, Admittance: 7, Capacity: 1, InService: true},
			{ID: 3, From: 1, To: 3, Admittance: 13, Capacity: 1, InService: true},
			{ID: 4, From: 3, To: 4, Admittance: 9, Capacity: 1, InService: true},
		},
		RefBus: 1,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEstimatorReuseInvisible runs one Estimator through every rung of the
// degraded-mode ladder, a weight change, a grid edited in place and a
// topology change, and checks
// that each call returns exactly what a fresh Estimator returns for it:
// the kept gain factorization never shows. It also checks which calls
// reuse the kept factorization, and that a failed rung leaves it alone.
func TestEstimatorReuseInvisible(t *testing.T) {
	g := reuseGrid(t)
	plan := measure.FullPlan(g.NumLines(), g.NumBuses())
	tt := g.TrueTopology()
	theta := []float64{0, -0.021, -0.034, -0.05}
	flows, err := g.FlowsFromTheta(tt, theta)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.ConsumptionFromFlows(tt, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Non-exact telemetry, so residuals and suspects are not all zero.
	z := measure.NewVector(plan.M())
	for l := 1; l <= g.NumLines(); l++ {
		z.Values[plan.ForwardIndex(l)] = flows[l-1] * (1 + 0.01*float64(l))
		z.Values[plan.BackwardIndex(l)] = -flows[l-1]
		z.Present[plan.ForwardIndex(l)] = true
		z.Present[plan.BackwardIndex(l)] = true
	}
	for b := 1; b <= g.NumBuses(); b++ {
		z.Values[plan.ConsumptionIndex(b)] = cons[b-1] + 0.001
		z.Present[plan.ConsumptionIndex(b)] = true
	}
	all := make([]int, 0, plan.M())
	for i := 1; i <= plan.M(); i++ {
		all = append(all, i)
	}
	// Everything touching theta_4: the spur's flows and the consumptions of
	// its ends.
	spur := drop(z, plan.ForwardIndex(4), plan.BackwardIndex(4),
		plan.ConsumptionIndex(3), plan.ConsumptionIndex(4))
	lineOut := grid.NewTopology([]int{1, 2, 4})

	est := NewEstimator(g, plan)
	noise := func() { est.SetUniformNoise(0.01) }
	editLine := func() { g.Lines[0].Admittance = 11 }
	steps := []struct {
		name     string
		edit     func() // run before the call when non-nil
		topo     grid.Topology
		z, last  *measure.Vector
		keeps    bool // the kept factorization survives: reused, or left alone by a failure
		wantRung string
	}{
		{"complete", nil, tt, z, nil, false, "complete"},
		{"complete again", nil, tt, z, nil, true, "complete"},
		{"RTU missing", nil, tt, drop(z, plan.ConsumptionIndex(4)), nil, false, "survivors"},
		{"RTU missing again", nil, tt, drop(z, plan.ConsumptionIndex(4)), nil, true, "survivors"},
		{"pseudo rung", nil, tt, spur, z, false, "pseudo"},
		{"island rung", nil, tt, spur, nil, false, "island"},
		{"unobservable", nil, tt, drop(z, all...), nil, true, "unobservable"},
		{"complete after failure", nil, tt, z, nil, false, "complete"},
		{"uniform noise, rows unchanged", noise, tt, z, nil, false, "complete"},
		{"uniform noise again", nil, tt, z, nil, true, "complete"},
		{"admittance edited in place", editLine, tt, z, nil, false, "complete"},
		{"line out", nil, lineOut, z, nil, false, "complete"},
		{"complete after line out", nil, tt, z, nil, false, "complete"},
	}
	for _, s := range steps {
		if s.edit != nil {
			s.edit()
		}
		kept := est.gain
		got, gotErr := est.EstimatePartial(s.topo, s.z, s.last)
		fresh := NewEstimator(g, plan)
		fresh.Weights = est.Weights
		want, wantErr := fresh.EstimatePartial(s.topo, s.z, s.last)

		rung := "unobservable"
		switch {
		case gotErr != nil:
		case got.IslandBuses != nil:
			rung = "island"
		case got.Pseudo != nil:
			rung = "pseudo"
		case got.Degraded:
			rung = "survivors"
		default:
			rung = "complete"
		}
		if rung != s.wantRung {
			t.Fatalf("%s: rung %s (err %v), want %s; scenario broken", s.name, rung, gotErr, s.wantRung)
		}
		if !errors.Is(gotErr, wantErr) || (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: err %v, fresh estimator %v", s.name, gotErr, wantErr)
		}
		if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s: reused estimator returned\n%+v\nfresh estimator\n%+v", s.name, got, want)
		}
		if keeps := est.gain == kept; keeps != s.keeps {
			t.Errorf("%s: kept factorization survives = %v, want %v", s.name, keeps, s.keeps)
		}
	}
}

// TestEstimateReuseAllocates: an identical second estimate reuses the gain
// factorization and its residual variances, and allocates under half of
// what a first estimate does.
func TestEstimateReuseAllocates(t *testing.T) {
	c, err := cases.ByName("synth118")
	if err != nil {
		t.Fatal(err)
	}
	g, plan := c.Grid, c.Plan
	tt := g.TrueTopology()
	gen := make([]float64, g.NumBuses())
	gen[g.RefBus-1] = g.TotalLoad()
	pf, err := g.SolvePowerFlow(tt, gen)
	if err != nil {
		t.Fatal(err)
	}
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(est *Estimator) {
		if _, err := est.EstimatePartial(tt, z, nil); err != nil {
			t.Fatal(err)
		}
	}
	first := testing.AllocsPerRun(3, func() { estimate(NewEstimator(g, plan)) })
	est := NewEstimator(g, plan)
	second := testing.AllocsPerRun(3, func() { estimate(est) })
	if second >= first/2 {
		t.Errorf("identical second estimate allocates %v times, first %v: want under half", second, first)
	}
}
