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
	"gridattack/internal/linalg/sparse"
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
			fac, err := dist.NewWith(g, t, dist.Sparse)
			if err != nil {
				b.Fatal(err)
			}
			for _, ln := range t.Lines() {
				fac.PTDF(ln, 1)
			}
		}
	})
}
