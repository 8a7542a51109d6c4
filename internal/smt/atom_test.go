package smt

import (
	"fmt"
	"math/big"
	"testing"
)

// atomOrder lists each interned inequality atom in SAT-variable order: its
// simplex variable, direction, strictness and bound.
func atomOrder(s *Solver) []string {
	var out []string
	for v, a := range s.atoms {
		if a != nil {
			out = append(out, fmt.Sprintf("%d:s%d/%t/%t/%s", v, a.slack, a.isUpper, a.strict, a.bound.RatString()))
		}
	}
	return out
}

// TestAtomSignNormalizesEqualities: an equality or disequality and its
// negated form, x - y op c and y - x op -c (also scaled by 3), intern the
// same bounds in the same order, with the same SAT variables and clauses.
func TestAtomSignNormalizesEqualities(t *testing.T) {
	c := big.NewRat(5, 2)
	negC := new(big.Rat).Neg(c)
	for _, op := range []Op{OpEQ, OpNE} {
		build := func(cx, cy int64, rhs *big.Rat) (Stats, []string) {
			s := NewSolver()
			x, y := s.NewReal("x"), s.NewReal("y")
			s.Assert(Atom(NewLinExpr().AddInt(cx, x).AddInt(cy, y), op, rhs))
			return s.Stats(), atomOrder(s)
		}
		wantSt, wantOrder := build(1, -1, c)
		for _, form := range []struct {
			name   string
			cx, cy int64
			rhs    *big.Rat
		}{
			{"y-x", -1, 1, negC},
			{"3y-3x", -3, 3, new(big.Rat).Mul(negC, big.NewRat(3, 1))},
		} {
			st, order := build(form.cx, form.cy, form.rhs)
			if st.SATVars != wantSt.SATVars || st.Clauses != wantSt.Clauses {
				t.Errorf("%s %s: %d SAT variables and %d clauses, x-y gives %d and %d",
					form.name, op, st.SATVars, st.Clauses, wantSt.SATVars, wantSt.Clauses)
			}
			if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
				t.Errorf("%s %s: atoms %v, x-y gives %v", form.name, op, order, wantOrder)
			}
		}
	}
}

// TestAtomFoldsConstantComparisons: a comparison without variables, given
// as an empty expression or as terms that cancel, is True or False, and a
// disjunction with a true one asserts nothing.
func TestAtomFoldsConstantComparisons(t *testing.T) {
	for _, tc := range []struct {
		op             Op
		neg, zero, pos bool // does 0 op rhs hold for rhs -1, 0, +1
	}{
		{OpLT, false, false, true},
		{OpLE, false, true, true},
		{OpEQ, false, true, false},
		{OpGE, true, true, false},
		{OpGT, true, false, false},
		{OpNE, true, false, true},
	} {
		for i, want := range []bool{tc.neg, tc.zero, tc.pos} {
			rhs := big.NewRat(int64(i-1), 1)
			wantF := False
			if want {
				wantF = True
			}
			if f := Atom(NewLinExpr(), tc.op, rhs); f != wantF {
				t.Errorf("0 %s %s folds to %s, want %s", tc.op, rhs.RatString(), f, wantF)
			}
			if f := Atom(NewLinExpr().AddInt(2, 0).AddInt(-2, 0), tc.op, rhs); f != wantF {
				t.Errorf("2x-2x %s %s folds to %s, want %s", tc.op, rhs.RatString(), f, wantF)
			}
		}
	}

	// The SAT core would drop a clause satisfied at level 0 anyway; the
	// premises record every clause handed to it.
	s := NewSolver()
	p := s.NewBool("p")
	before, premises := s.Stats(), len(s.premises)
	s.Assert(Or(Bool(p), Atom(NewLinExpr(), OpEQ, new(big.Rat))))
	after := s.Stats()
	if len(s.premises) != premises || after.Clauses != before.Clauses || after.SATVars != before.SATVars {
		t.Errorf("Or(p, 0 = 0) added %d premises, %d clauses and %d SAT variables, want none",
			len(s.premises)-premises, after.Clauses-before.Clauses, after.SATVars-before.SATVars)
	}
}

// TestAtomSignNormalizedCertificates: certified checks over equalities and
// disequalities with a negative leading coefficient verify their Sat and
// Unsat certificates.
func TestAtomSignNormalizedCertificates(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Op
		rhs  int64 // second atom: x - y op rhs
		want Result
	}{
		{"equal", OpEQ, 3, Sat},
		{"contradict", OpEQ, 4, Unsat},
		{"differ", OpNE, 4, Sat},
		{"not-differ", OpNE, 3, Unsat},
	} {
		s := newCertSolver()
		x, y := s.NewReal("x"), s.NewReal("y")
		// y - x = -3 is stored as x - y = 3.
		s.Assert(Atom(NewLinExpr().AddInt(-1, x).AddInt(1, y), OpEQ, big.NewRat(-3, 1)))
		s.Assert(Atom(NewLinExpr().AddInt(-2, x).AddInt(2, y), tc.op, big.NewRat(-2*tc.rhs, 1)))
		res, err := s.Check()
		if err != nil || res != tc.want {
			t.Fatalf("%s: Check = %v, %v; want %v", tc.name, res, err, tc.want)
		}
		if err := s.Certificate().Verify(); err != nil {
			t.Errorf("%s: Verify() = %v", tc.name, err)
		}
	}
}
