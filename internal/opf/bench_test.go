package opf

import (
	"testing"

	"gridattack/internal/cases"
)

// BenchmarkOPFSolve measures one cold angle-formulation OPF solve on each
// evaluation system's true topology: the LP behind every analysis's
// attack-free baseline, every LP verification and the fleet's memo-miss
// re-dispatch. pivots/op counts the simplex basis changes of that LP, built
// by buildAngleLP and solved once directly.
func BenchmarkOPFSolve(b *testing.B) {
	for _, name := range cases.EvaluationOrder() {
		b.Run(name, func(b *testing.B) {
			c, err := cases.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, topo := c.Grid, c.Grid.TrueTopology()
			p, _, err := buildAngleLP(g, topo, g.LoadVector())
			if err != nil {
				b.Fatal(err)
			}
			sol, err := p.Solve()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(g, topo, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sol.Pivots), "pivots/op")
		})
	}
}
