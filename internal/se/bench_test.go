package se

import (
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/measure"
)

// BenchmarkEstimatePartial times the estimate of one fleet cycle on
// synth118: complete telemetry (a clean cycle), and the telemetry of one
// bus's RTU missing (a degraded cycle, solved from the survivors). Both
// repeat on one Estimator, so, as in a fleet's repeated cycles, every call
// after the first reuses its gain factorization; complete-fresh builds a
// fresh Estimator per call and times a miss.
func BenchmarkEstimatePartial(b *testing.B) {
	c, err := cases.ByName("synth118")
	if err != nil {
		b.Fatal(err)
	}
	g, plan := c.Grid, c.Plan
	topo := g.TrueTopology()
	gen := make([]float64, g.NumBuses())
	gen[g.RefBus-1] = g.TotalLoad()
	pf, err := g.SolvePowerFlow(topo, gen)
	if err != nil {
		b.Fatal(err)
	}
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	est := NewEstimator(g, plan)
	rtuDown := drop(z, busMeasurements(g, plan, g.NumBuses()/2)...)
	if res, err := est.EstimatePartial(topo, rtuDown, nil); err != nil || !res.Degraded || res.Pseudo != nil || res.IslandBuses != nil {
		b.Fatalf("RTU-down telemetry is not a survivors estimate: %+v, %v", res, err)
	}
	for _, tc := range []struct {
		name  string
		z     *measure.Vector
		fresh bool
	}{{"complete", z, false}, {"rtu-missing", rtuDown, false}, {"complete-fresh", z, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := est
				if tc.fresh {
					e = NewEstimator(g, plan)
				}
				if _, err := e.EstimatePartial(topo, tc.z, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
