//go:build bigbench

// Benchmarks for the 300/1354-bus scalability systems. These sit behind the
// bigbench build tag because even one iteration costs seconds to tens of
// seconds; the CI bench-smoke lane runs them with -tags bigbench
// -benchtime=1x so the big-system paths cannot rot unnoticed.
// EXPERIMENTS.md keeps the historical sparse-substrate numbers.
package gridattack_test

import (
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/dist"
	"gridattack/internal/grid"
	"gridattack/internal/linalg/sparse"
	"gridattack/internal/opf"
)

// BenchmarkExclusionScreen measures the end-to-end economic exclusion screen
// (core.ScreenExclusions): baseline OPF, distribution factors, and a sound
// Safe/Islanding/Flagged classification of every single-line candidate
// against the +1.5% cost target.
func BenchmarkExclusionScreen(b *testing.B) {
	for _, name := range []string{"synth118", "synth300"} {
		c, err := cases.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.ScreenExclusions(c.Grid, 1.5)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Safe+rep.Islanding+rep.Flagged != rep.Candidates {
					b.Fatalf("classes do not partition the candidates: %+v", rep)
				}
			}
		})
	}
}

// BenchmarkOPFSolve300 measures one cold angle-formulation OPF solve on
// synth300's true topology, the dense simplex's scale wall: the LP behind
// every synth300 baseline and LP verification. pivots/op counts the simplex
// basis changes of that LP, solved once directly.
func BenchmarkOPFSolve300(b *testing.B) {
	c, err := cases.ByName("synth300")
	if err != nil {
		b.Fatal(err)
	}
	g, topo := c.Grid, c.Grid.TrueTopology()
	p, err := opf.AngleLP(g, topo, nil)
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
		if _, err := opf.Solve(g, topo, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sol.Pivots), "pivots/op")
}

// BenchmarkOPFReoptimize300 is internal/opf's BenchmarkOPFReoptimize on
// synth300: one LP verification re-optimized from the true topology's
// baseline, for the first in-service line whose exclusion keeps the OPF
// feasible, with that line's flow moved onto the loads of its end buses.
// BenchmarkOPFSolve300 is the cold solve it replaces.
func BenchmarkOPFReoptimize300(b *testing.B) {
	c, err := cases.ByName("synth300")
	if err != nil {
		b.Fatal(err)
	}
	g := c.Grid
	ws := opf.NewWarmSolver(g)
	base, err := ws.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	var topo grid.Topology
	var loads []float64
	for _, id := range g.InServiceLines() {
		ln := g.Lines[id-1]
		topo, loads = g.TrueTopology().WithExcluded(id), g.LoadVector()
		loads[ln.From-1] += base.Flows[id-1]
		loads[ln.To-1] -= base.Flows[id-1]
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

// BenchmarkSparseSubstrate1354 measures the sparse numeric substrate on the
// largest system: the min-degree-ordered LU of the reduced susceptance
// matrix, and the factorize-once construction of every line's PTDF row.
func BenchmarkSparseSubstrate1354(b *testing.B) {
	c, err := cases.ByName("synth1354")
	if err != nil {
		b.Fatal(err)
	}
	g := c.Grid
	t := g.TrueTopology()

	b.Run("factorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparse.Factorize(g.BSparse(t)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ptdf-all-lines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fac, err := dist.New(g, t)
			if err != nil {
				b.Fatal(err)
			}
			for _, ln := range t.Lines() {
				fac.PTDF(ln, 1)
			}
		}
	})
}
