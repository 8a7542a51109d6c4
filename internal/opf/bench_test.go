package opf

import (
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
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

// BenchmarkOPFReoptimize measures one LP verification of the Fig. 2 loop on
// each evaluation system: WarmSolver.SolveTopology re-optimizing, from the
// true topology's baseline, the first in-service line's exclusion that
// keeps the network connected and the OPF feasible, with that line's flow
// moved onto the loads of its end buses. pivots/op counts the simplex basis
// changes of one re-optimization; BenchmarkOPFSolve is the cold solve it
// replaces.
func BenchmarkOPFReoptimize(b *testing.B) {
	for _, name := range cases.EvaluationOrder() {
		b.Run(name, func(b *testing.B) {
			c, err := cases.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			benchReoptimize(b, c.Grid)
		})
	}
}

// benchReoptimize is BenchmarkOPFReoptimize on one grid.
func benchReoptimize(b *testing.B, g *grid.Grid) {
	ws := NewWarmSolver(g)
	base, err := ws.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	var topo grid.Topology
	var loads []float64
	for _, id := range g.InServiceLines() {
		topo, loads = g.TrueTopology().WithExcluded(id), shiftedLoads(g, base, id)
		if _, err = ws.SolveTopology(topo, loads); err == nil {
			break
		}
	}
	if err != nil {
		b.Fatal("no feasible single-line exclusion")
	}
	before := ws.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.SolveTopology(topo, loads); err != nil {
			b.Fatal(err)
		}
	}
	st := ws.Stats()
	b.ReportMetric(float64(st.Pivots-before.Pivots)/float64(st.Reopts-before.Reopts), "pivots/op")
}
