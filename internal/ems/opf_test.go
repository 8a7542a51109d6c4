package ems

import (
	"math"
	"reflect"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/topo"
)

// telemetryAt returns exact telemetry of g's power flow at dispatch, and a
// copy with every taken measurement of bus missing (one RTU down).
func telemetryAt(t testing.TB, g *grid.Grid, plan *measure.Plan, dispatch []float64, bus int) (z, down *measure.Vector) {
	t.Helper()
	pf, err := g.SolvePowerFlow(g.TrueTopology(), dispatch)
	if err != nil {
		t.Fatal(err)
	}
	z, err = plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	down = z.Clone()
	for i := 1; i <= plan.M(); i++ {
		if plan.Taken[i] && plan.BusOf(i, g) == bus {
			down.Present[i], down.Values[i] = false, 0
		}
	}
	return z, down
}

// TestPipelineOPFSolvers: on complete telemetry a cycle's dispatch is
// opf.Solve's, bit for bit; on degraded telemetry it is the re-optimization
// from the grid's baseline, within 1e-9 relative of opf.Solve's cost and
// bit for bit a fresh Pipeline's. The counters say which solver answered.
func TestPipelineOPFSolvers(t *testing.T) {
	for _, name := range []string{"paper5", "synth118"} {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, plan := c.Grid, c.Plan
		op, err := opf.Solve(g, g.TrueTopology(), nil)
		if err != nil {
			t.Fatal(err)
		}
		z, down := telemetryAt(t, g, plan, op.Dispatch, g.NumBuses()/2+1)
		p := NewPipeline(g, plan)
		p.Memo = NewOPFMemo(8)

		complete, err := p.RunCycleResilient(z, topo.TrueReport(g), op.Dispatch, nil)
		if err != nil || complete.Degraded {
			t.Fatalf("%s: complete cycle: %+v, %v", name, complete, err)
		}
		cold, err := opf.Solve(g, complete.Topology, complete.LoadEstimates)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(reflect.ValueOf(complete.Dispatch), reflect.ValueOf(cold)) {
			t.Errorf("%s: complete-telemetry dispatch is not opf.Solve's", name)
		}

		degraded, err := p.RunCycleResilient(down, topo.TrueReport(g), op.Dispatch, nil)
		if err != nil || !degraded.Degraded || !degraded.Redispatched {
			t.Fatalf("%s: degraded cycle: %+v, %v", name, degraded, err)
		}
		cold, err = opf.Solve(g, degraded.Topology, degraded.LoadEstimates)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(degraded.Dispatch.Cost-cold.Cost) / cold.Cost; d > 1e-9 {
			t.Errorf("%s: degraded cost %v, opf.Solve %v (%.3g relative)", name, degraded.Dispatch.Cost, cold.Cost, d)
		}
		fresh, err := NewPipeline(g, plan).RunCycleResilient(down, topo.TrueReport(g), op.Dispatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(reflect.ValueOf(degraded), reflect.ValueOf(fresh)) {
			t.Errorf("%s: degraded cycle differs from a fresh Pipeline's", name)
		}
		if _, err := p.RunCycleResilient(down, topo.TrueReport(g), op.Dispatch, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := p.OPFStats(), (OPFStats{MemoHits: 1, Cold: 1, Reopts: 1}); got != want {
			t.Errorf("%s: stats %+v, want %+v", name, got, want)
		}
	}
}

// TestOPFMemoKeepsSolversApart: a snapshot first answered by one solver is
// never answered from the memo for a cycle that the other solver serves.
// In either order each cycle gets its own solver's bits, and the
// re-optimization's are what a fresh WarmSolver returns.
func TestOPFMemoKeepsSolversApart(t *testing.T) {
	g := cases.Paper5Bus()
	tt := g.TrueTopology()
	loads := g.LoadVector()
	for i := range loads {
		loads[i] *= 1 + 1e-3*float64(i%3)
	}
	cold, err := opf.Solve(g, tt, loads)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := opf.NewWarmSolver(g).SolveTopology(tt, loads)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]*opf.Solution{false: cold, true: warm}
	for _, order := range [][]bool{{true, false}, {false, true}} {
		p := NewPipeline(g, cases.Paper5PlanCase1())
		p.Memo = NewOPFMemo(8)
		for _, degraded := range append(order, order...) {
			got, err := p.solveOPF(tt, loads, degraded)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want[degraded])) {
				t.Errorf("order %v: degraded=%v answered with the other solver's bits", order, degraded)
			}
		}
		if got, want := p.OPFStats(), (OPFStats{MemoHits: 2, Cold: 1, Reopts: 1}); got != want {
			t.Errorf("order %v: stats %+v, want %+v", order, got, want)
		}
	}
}

// TestOPFMemoFollowsGrid: a Pipeline whose Grid is replaced, or edited in
// place, answers every cycle as a fresh Pipeline on that grid does, on
// complete and on degraded telemetry: neither the memo nor the baseline
// answers for the grid they were solved on.
func TestOPFMemoFollowsGrid(t *testing.T) {
	g, plan, dispatch, _ := operatingPoint(t)
	z, down := telemetryAt(t, g, plan, dispatch, 3)
	p := NewPipeline(g, plan)
	p.Memo = NewOPFMemo(8)
	costly := g.Clone()
	for i := range costly.Generators {
		costly.Generators[i].Beta *= 2
	}
	steps := []struct {
		name string
		edit func()
		cost float64 // complete-telemetry cost, to the cent
	}{
		{"original grid", nil, 1373.57},
		{"grid replaced: marginal costs doubled", func() { p.Grid = costly }, 2577.15},
		{"original grid back", func() { p.Grid = g }, 1373.57},
		{"capacities scaled by 0.8 in place", func() {
			for i := range g.Lines {
				g.Lines[i].Capacity *= 0.8
			}
		}, 1387.05},
	}
	for _, s := range steps {
		if s.edit != nil {
			s.edit()
		}
		for _, tel := range []*measure.Vector{z, down} {
			got, err := p.RunCycleResilient(tel, topo.TrueReport(p.Grid), dispatch, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewPipeline(p.Grid, plan).RunCycleResilient(tel, topo.TrueReport(p.Grid), dispatch, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Errorf("%s (degraded %v): cost %.2f, fresh Pipeline %.2f", s.name, got.Degraded, got.Dispatch.Cost, want.Dispatch.Cost)
			}
			if !got.Degraded && math.Abs(got.Dispatch.Cost-s.cost) > 0.005 {
				t.Errorf("%s: cost %.2f, want %.2f", s.name, got.Dispatch.Cost, s.cost)
			}
		}
	}
}
