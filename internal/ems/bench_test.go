package ems

import (
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/topo"
)

// BenchmarkPipelineCycle times one resilient EMS cycle on synth118 with a
// kept Pipeline: complete telemetry answered by the OPF memo, one RTU
// missing without a memo (the OPF re-optimized from the grid's baseline),
// and complete telemetry without a memo (a cold opf.Solve).
func BenchmarkPipelineCycle(b *testing.B) {
	c, err := cases.ByName("synth118")
	if err != nil {
		b.Fatal(err)
	}
	g, plan := c.Grid, c.Plan
	op, err := opf.Solve(g, g.TrueTopology(), nil)
	if err != nil {
		b.Fatal(err)
	}
	z, down := telemetryAt(b, g, plan, op.Dispatch, g.NumBuses()/2+1)
	report := topo.TrueReport(g)
	for _, bc := range []struct {
		name string
		z    *measure.Vector
		memo bool
		want OPFStats // what one cycle adds
	}{
		{"memo-hit", z, true, OPFStats{MemoHits: 1}},
		{"rtu-missing-reopt", down, false, OPFStats{Reopts: 1}},
		{"complete-cold", z, false, OPFStats{Cold: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewPipeline(g, plan)
			if bc.memo {
				p.Memo = NewOPFMemo(8)
			}
			cycle := func() {
				if _, err := p.RunCycleResilient(bc.z, report, op.Dispatch, nil); err != nil {
					b.Fatal(err)
				}
			}
			cycle() // builds the estimator's gain, the memo entry or the baseline
			before := p.OPFStats()
			cycle()
			if got := p.OPFStats(); got.MemoHits-before.MemoHits != bc.want.MemoHits ||
				got.Cold-before.Cold != bc.want.Cold || got.Reopts-before.Reopts != bc.want.Reopts {
				b.Fatalf("one cycle took %+v from %+v, want %+v more", got, before, bc.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
