package ems

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/measure"
	"gridattack/internal/topo"
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

// TestPipelineReuseBitTransparent: one Pipeline kept across strict and
// resilient cycles, reusing its state estimator's gain factorization and
// its OPF memo, returns bit for bit what a fresh Pipeline returns for each
// cycle, and rebuilds its estimator when the plan changes.
func TestPipelineReuseBitTransparent(t *testing.T) {
	g, plan, dispatch, pf := operatingPoint(t)
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := plan.FromPowerFlow(g, pf, 0.001, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	bus3Down := z.Clone()
	for i := 1; i <= plan.M(); i++ {
		if plan.Taken[i] && plan.BusOf(i, g) == 3 {
			bus3Down.Present[i] = false
			bus3Down.Values[i] = 0
		}
	}
	// Line 1 open, with telemetry of the power flow without it.
	opened := topo.TrueReport(g)
	if err := opened.Tamper(g, 1, false); err != nil {
		t.Fatal(err)
	}
	openTopo, err := topo.NewProcessor(g).Map(opened)
	if err != nil {
		t.Fatal(err)
	}
	openPF, err := g.SolvePowerFlow(openTopo, dispatch)
	if err != nil {
		t.Fatal(err)
	}
	zOpen, err := plan.FromPowerFlow(g, openPF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan2 := cases.Paper5PlanCase2()
	z2, err := plan2.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(g, plan)
	p.Memo = NewOPFMemo(4)
	cycles := []struct {
		name      string
		resilient bool
		plan      *measure.Plan
		threshold float64
		z         *measure.Vector
		report    *topo.Report
		badData   bool
	}{
		{"clean", false, plan, 0, z, topo.TrueReport(g), false},
		{"clean again", false, plan, 0, z, topo.TrueReport(g), false},
		{"resilient clean", true, plan, 0, z, topo.TrueReport(g), false},
		{"bus 3 down", true, plan, 0, bus3Down, topo.TrueReport(g), false},
		{"bus 3 down again", true, plan, 0, bus3Down, topo.TrueReport(g), false},
		{"noisy", false, plan, 0, noisy, topo.TrueReport(g), false},
		{"line 1 open", true, plan, 0, zOpen, opened, false},
		{"noisy under a threshold", false, plan, 1e-6, noisy, topo.TrueReport(g), true},
		{"noisy, threshold cleared", false, plan, 0, noisy, topo.TrueReport(g), false},
		{"other plan", false, plan2, 0, z2, topo.TrueReport(g), false},
		{"other plan, resilient", true, plan2, 0, z2, topo.TrueReport(g), false},
	}
	run := func(p *Pipeline, resilient bool, z *measure.Vector, r *topo.Report) (*CycleResult, error) {
		if resilient {
			return p.RunCycleResilient(z, r, dispatch, z)
		}
		return p.RunCycle(z, r, dispatch)
	}
	for _, c := range cycles {
		p.Plan, p.ResidualThreshold = c.plan, c.threshold
		got, gotErr := run(p, c.resilient, c.z, c.report)
		fresh := NewPipeline(g, c.plan)
		fresh.ResidualThreshold = c.threshold
		want, wantErr := run(fresh, c.resilient, c.z, c.report)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: err %v, fresh pipeline %v", c.name, gotErr, wantErr)
		}
		if errors.Is(gotErr, ErrBadData) != c.badData || (gotErr != nil && !c.badData) {
			t.Fatalf("%s: err %v, want bad data %v; scenario broken", c.name, gotErr, c.badData)
		}
		if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s: kept pipeline returned\n%+v\nfresh pipeline\n%+v", c.name, got, want)
		}
		if p.estPlan != c.plan {
			t.Errorf("%s: estimator built for another plan", c.name)
		}
	}
	if hits, _ := p.Memo.Stats(); hits == 0 {
		t.Error("no OPF memo hit: the cycles do not exercise reuse")
	}
}
