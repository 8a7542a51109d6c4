// Micro-benchmarks for the LRA theory solver's arithmetic kernel: the hot
// pivotAndUpdate path, bound-heavy propagation workloads, and incremental
// re-checking. The analyze-smt workload of bench/gridbench records the
// corresponding fast-path/fallback counters; EXPERIMENTS.md keeps the
// before/after numbers of the hybrid-rational + flat-tableau overhaul.
package smt

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// densePivotSolver builds a deterministic pivot-heavy instance: nForms dense
// linear forms over nVars variables, each squeezed into a narrow window so
// the simplex must pivot repeatedly to repair violated rows.
func densePivotSolver(nVars, nForms int, seed int64) *Solver {
	rng := rand.New(rand.NewSource(seed))
	s := NewSolver()
	xs := make([]int, nVars)
	for i := range xs {
		xs[i] = s.NewReal(fmt.Sprintf("x%d", i))
	}
	for i := range xs {
		s.Assert(Atom(NewLinExpr().AddInt(1, xs[i]), OpGE, big.NewRat(-8, 1)))
		s.Assert(Atom(NewLinExpr().AddInt(1, xs[i]), OpLE, big.NewRat(8, 1)))
	}
	for f := 0; f < nForms; f++ {
		e := NewLinExpr()
		nz := 0
		for _, x := range xs {
			c := int64(rng.Intn(7) - 3)
			if c != 0 {
				e.AddInt(c, x)
				nz++
			}
		}
		if nz == 0 {
			e.AddInt(1, xs[f%nVars])
		}
		mid := int64(rng.Intn(9) - 4)
		s.Assert(Atom(e, OpGE, big.NewRat(2*mid-1, 2)))
		s.Assert(Atom(e, OpLE, big.NewRat(2*mid+1, 2)))
	}
	return s
}

// BenchmarkSimplexPivot measures a single pivot-heavy Check: a conjunctive
// instance, so the time is dominated by pivotAndUpdate/pivot rather than the
// boolean search.
func BenchmarkSimplexPivot(b *testing.B) {
	for _, size := range []struct{ vars, forms int }{{12, 24}, {24, 48}} {
		b.Run(fmt.Sprintf("vars=%d/forms=%d", size.vars, size.forms), func(b *testing.B) {
			b.ReportAllocs()
			var pivots int64
			for i := 0; i < b.N; i++ {
				s := densePivotSolver(size.vars, size.forms, 7)
				if _, err := s.Check(); err != nil {
					b.Fatal(err)
				}
				pivots = s.Stats().Pivots
			}
			b.ReportMetric(float64(pivots), "pivots/op")
		})
	}
}

// BenchmarkBoundPropagation measures a workload where most atoms are implied
// by a few asserted bounds (ladders of weaker atoms behind disjunctions) —
// the case theory-level bound propagation is designed to close before the
// boolean search explores it.
func BenchmarkBoundPropagation(b *testing.B) {
	const nVars, rungs = 8, 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		xs := make([]int, nVars)
		for j := range xs {
			xs[j] = s.NewReal(fmt.Sprintf("x%d", j))
		}
		// Tight asserted bound per variable, plus ladders of implied atoms
		// combined into disjunctions the SAT core must reconcile.
		for j, x := range xs {
			s.Assert(Atom(NewLinExpr().AddInt(1, x), OpLE, big.NewRat(int64(j), 1)))
			s.Assert(Atom(NewLinExpr().AddInt(1, x), OpGE, big.NewRat(int64(j)-1, 1)))
			var ladder []*Formula
			for r := 1; r <= rungs; r++ {
				ladder = append(ladder, Atom(NewLinExpr().AddInt(1, x), OpGT, big.NewRat(int64(j+r), 1)))
			}
			other := xs[(j+1)%nVars]
			ladder = append(ladder, Atom(NewLinExpr().AddInt(1, other), OpLE, big.NewRat(int64((j+1)%nVars), 1)))
			s.Assert(Or(ladder...))
		}
		res, err := s.Check()
		if err != nil {
			b.Fatal(err)
		}
		if res != Sat {
			b.Fatalf("got %v, want sat", res)
		}
	}
}

// BenchmarkIncrementalRecheck measures blocking-clause style iteration (the
// Fig. 2 loop's solver usage pattern): one model found, blocked, re-checked.
func BenchmarkIncrementalRecheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := densePivotSolver(10, 16, 11)
		bits := make([]int, 6)
		for j := range bits {
			bits[j] = s.NewBool(fmt.Sprintf("b%d", j))
		}
		s.AssertAtMostK(bits, 3)
		for round := 0; round < 8; round++ {
			res, err := s.Check()
			if err != nil {
				b.Fatal(err)
			}
			if res != Sat {
				break
			}
			block := make([]*Formula, len(bits))
			for j, v := range bits {
				if s.BoolValue(v) {
					block[j] = Not(Bool(v))
				} else {
					block[j] = Bool(v)
				}
			}
			s.Assert(Or(block...))
		}
	}
}
