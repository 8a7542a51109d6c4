package smt

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func mustCheck(t *testing.T, s *Solver) Result {
	t.Helper()
	res, err := s.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func TestPureBoolSat(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	b := s.NewBool("b")
	s.Assert(Or(Bool(a), Bool(b)))
	s.Assert(Not(Bool(a)))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if s.BoolValue(a) {
		t.Error("a should be false")
	}
	if !s.BoolValue(b) {
		t.Error("b should be true")
	}
}

func TestPureBoolUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	s.Assert(Bool(a))
	s.Assert(Not(Bool(a)))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestImpliesChainUnsat(t *testing.T) {
	s := NewSolver()
	vars := make([]int, 10)
	for i := range vars {
		vars[i] = s.NewBool("")
	}
	for i := 0; i+1 < len(vars); i++ {
		s.Assert(Implies(Bool(vars[i]), Bool(vars[i+1])))
	}
	s.Assert(Bool(vars[0]))
	s.Assert(Not(Bool(vars[len(vars)-1])))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestIffAndConstants(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	s.Assert(Iff(Bool(a), True))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if !s.BoolValue(a) {
		t.Error("a should be true")
	}
	s.Assert(Iff(Bool(a), False))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestSimpleArithmeticSat(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	y := s.NewReal("y")
	// x + y >= 4, x <= 1 => y >= 3.
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpGE, 4))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLE, 1))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	xv := s.RealValueFloat(x)
	yv := s.RealValueFloat(y)
	if xv > 1+1e-12 {
		t.Errorf("x = %v, want <= 1", xv)
	}
	if xv+yv < 4-1e-12 {
		t.Errorf("x+y = %v, want >= 4", xv+yv)
	}
}

func TestArithmeticUnsat(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 5))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLE, 3))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestStrictInequality(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGT, 2))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLT, 3))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	xv := s.RealValueFloat(x)
	if !(xv > 2 && xv < 3) {
		t.Errorf("x = %v, want strictly in (2,3)", xv)
	}
}

func TestStrictInequalityUnsatPoint(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	// x > 2 and x < 2 is unsat; x >= 2 and x <= 2 is sat (x = 2).
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGT, 2))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLT, 2))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}

	s2 := NewSolver()
	x2 := s2.NewReal("x")
	s2.Assert(AtomFloat(NewLinExpr().AddInt(1, x2), OpGE, 2))
	s2.Assert(AtomFloat(NewLinExpr().AddInt(1, x2), OpLE, 2))
	if res := mustCheck(t, s2); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if v := s2.RealValueFloat(x2); v != 2 {
		t.Errorf("x = %v, want exactly 2", v)
	}
}

func TestEqualityAtom(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	y := s.NewReal("y")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(-1, y), OpEQ, 3))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, y), OpEQ, 2))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if v := s.RealValueFloat(x); v != 5 {
		t.Errorf("x = %v, want 5", v)
	}
}

func TestDisequalityAtom(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 1))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLE, 1))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpNE, 1))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestDisequalitySat(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 0))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpLE, 1))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpNE, 0))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if v := s.RealValueFloat(x); v <= 0 || v > 1 {
		t.Errorf("x = %v, want in (0, 1]", v)
	}
}

func TestBoolArithmeticInteraction(t *testing.T) {
	s := NewSolver()
	p := s.NewBool("p")
	x := s.NewReal("x")
	// p -> x >= 10; !p -> x <= -10; x == 5. Forces p true... but x==5
	// contradicts x >= 10, and !p requires x <= -10: unsat.
	s.Assert(Implies(Bool(p), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 10)))
	s.Assert(Implies(Not(Bool(p)), AtomFloat(NewLinExpr().AddInt(1, x), OpLE, -10)))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpEQ, 5))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestBoolArithmeticChoice(t *testing.T) {
	s := NewSolver()
	p := s.NewBool("p")
	x := s.NewReal("x")
	s.Assert(Implies(Bool(p), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 10)))
	s.Assert(Implies(Not(Bool(p)), AtomFloat(NewLinExpr().AddInt(1, x), OpLE, -10)))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 0))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if !s.BoolValue(p) {
		t.Error("p must be true (x >= 0 rules out x <= -10)")
	}
	if v := s.RealValueFloat(x); v < 10 {
		t.Errorf("x = %v, want >= 10", v)
	}
}

func TestSharedLinearForm(t *testing.T) {
	// The same form x+y with different bounds must share one slack variable.
	s := NewSolver()
	x := s.NewReal("x")
	y := s.NewReal("y")
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpLE, 10))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpGE, 10))
	s.Assert(AtomFloat(NewLinExpr().AddInt(2, x).AddInt(2, y), OpLE, 20)) // scaled duplicate
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if got := s.RealValueFloat(x) + s.RealValueFloat(y); got != 10 {
		t.Errorf("x+y = %v, want 10", got)
	}
	if s.Stats().RealVars != 3 { // x, y, one shared slack
		t.Errorf("RealVars = %d, want 3 (shared slack)", s.Stats().RealVars)
	}
}

func TestIncrementalBlocking(t *testing.T) {
	// Enumerate all 3 models of (a | b) & !(a & b) ... plus blocking.
	s := NewSolver()
	a := s.NewBool("a")
	b := s.NewBool("b")
	s.Assert(Or(Bool(a), Bool(b)))
	count := 0
	for {
		res := mustCheck(t, s)
		if res == Unsat {
			break
		}
		count++
		if count > 3 {
			t.Fatal("enumerated more than 3 models of (a|b)")
		}
		// Block this model.
		block := make([]*Formula, 0, 2)
		for _, v := range []int{a, b} {
			if s.BoolValue(v) {
				block = append(block, Not(Bool(v)))
			} else {
				block = append(block, Bool(v))
			}
		}
		s.Assert(Or(block...))
	}
	if count != 3 {
		t.Errorf("model count = %d, want 3", count)
	}
}

func TestAtMostK(t *testing.T) {
	for k := 0; k <= 4; k++ {
		s := NewSolver()
		vars := make([]int, 4)
		for i := range vars {
			vars[i] = s.NewBool("")
		}
		s.AssertAtMostK(vars, k)
		// Count models by enumeration; must be sum_{j<=k} C(4,j).
		want := 0
		for j := 0; j <= k && j <= 4; j++ {
			want += binom(4, j)
		}
		count := 0
		for {
			res := mustCheck(t, s)
			if res == Unsat {
				break
			}
			count++
			if count > 16 {
				t.Fatalf("k=%d: runaway enumeration", k)
			}
			block := make([]*Formula, 0, 4)
			for _, v := range vars {
				if s.BoolValue(v) {
					block = append(block, Not(Bool(v)))
				} else {
					block = append(block, Bool(v))
				}
			}
			s.Assert(Or(block...))
		}
		if count != want {
			t.Errorf("k=%d: models = %d, want %d", k, count, want)
		}
	}
}

func TestAtMostKNegative(t *testing.T) {
	s := NewSolver()
	v := s.NewBool("")
	s.AssertAtMostK([]int{v}, -1)
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat for k < 0", res)
	}
}

func TestAtLeastOne(t *testing.T) {
	s := NewSolver()
	vars := []int{s.NewBool(""), s.NewBool("")}
	s.AssertAtLeastOne(vars)
	s.Assert(Not(Bool(vars[0])))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	if !s.BoolValue(vars[1]) {
		t.Error("second var must be true")
	}
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestEmptyAtomConstantFolding(t *testing.T) {
	s := NewSolver()
	x := s.NewReal("x")
	// x - x <= 3 is trivially true; x - x >= 1 is trivially false.
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(-1, x), OpLE, 3))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(-1, x), OpGE, 1))
	if res := mustCheck(t, s); res != Unsat {
		t.Fatalf("res = %v, want unsat", res)
	}
}

func TestModelSatisfiesAtoms(t *testing.T) {
	// Random conjunctions/disjunctions of bounds on 3 variables; on Sat the
	// model must satisfy the original formula.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSolver()
		xs := []int{s.NewReal("x"), s.NewReal("y"), s.NewReal("z")}
		type rawAtom struct {
			coeffs [3]int
			op     Op
			rhs    int
		}
		var atoms []rawAtom
		var fs []*Formula
		for i := 0; i < 6; i++ {
			var ra rawAtom
			nonzero := false
			for j := range ra.coeffs {
				ra.coeffs[j] = rng.Intn(5) - 2
				if ra.coeffs[j] != 0 {
					nonzero = true
				}
			}
			if !nonzero {
				ra.coeffs[0] = 1
			}
			ra.op = []Op{OpLT, OpLE, OpGE, OpGT, OpEQ}[rng.Intn(5)]
			ra.rhs = rng.Intn(9) - 4
			atoms = append(atoms, ra)
			e := NewLinExpr()
			for j, cf := range ra.coeffs {
				if cf != 0 {
					e.AddInt(int64(cf), xs[j])
				}
			}
			fs = append(fs, Atom(e, ra.op, big.NewRat(int64(ra.rhs), 1)))
		}
		// Assert pairs of disjunctions to create boolean structure.
		for i := 0; i+1 < len(fs); i += 2 {
			s.Assert(Or(fs[i], fs[i+1]))
		}
		res, err := s.Check()
		if err != nil {
			return false
		}
		if res == Unsat {
			return true // nothing to verify here
		}
		vals := [3]*big.Rat{s.RealValue(xs[0]), s.RealValue(xs[1]), s.RealValue(xs[2])}
		evalAtom := func(ra rawAtom) bool {
			lhs := new(big.Rat)
			for j, cf := range ra.coeffs {
				term := new(big.Rat).Mul(big.NewRat(int64(cf), 1), vals[j])
				lhs.Add(lhs, term)
			}
			c := lhs.Cmp(big.NewRat(int64(ra.rhs), 1))
			switch ra.op {
			case OpLT:
				return c < 0
			case OpLE:
				return c <= 0
			case OpEQ:
				return c == 0
			case OpGE:
				return c >= 0
			case OpGT:
				return c > 0
			case OpNE:
				return c != 0
			}
			return false
		}
		for i := 0; i+1 < len(atoms); i += 2 {
			if !evalAtom(atoms[i]) && !evalAtom(atoms[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the CDCL core on random 3-SAT
// instances against exhaustive enumeration.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(6) // 3..8
		nClauses := 1 + rng.Intn(25)
		type cls [3]int // +-(var+1)
		clauses := make([]cls, nClauses)
		for i := range clauses {
			for j := 0; j < 3; j++ {
				v := rng.Intn(nVars) + 1
				if rng.Intn(2) == 0 {
					v = -v
				}
				clauses[i][j] = v
			}
		}
		// Brute force.
		bruteSat := false
		for mask := 0; mask < 1<<nVars; mask++ {
			ok := true
			for _, c := range clauses {
				cok := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := mask>>(v-1)&1 == 1
					if (l > 0) == val {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		// SMT solver.
		s := NewSolver()
		vars := make([]int, nVars)
		for i := range vars {
			vars[i] = s.NewBool("")
		}
		for _, c := range clauses {
			lits := make([]*Formula, 3)
			for j, l := range c {
				v := l
				if v < 0 {
					v = -v
				}
				lits[j] = Bool(vars[v-1])
				if l < 0 {
					lits[j] = Not(lits[j])
				}
			}
			s.Assert(Or(lits...))
		}
		res, err := s.Check()
		if err != nil {
			return false
		}
		return (res == Sat) == bruteSat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRandomBoundSystems cross-checks the theory solver against an
// interval-propagation oracle on single-variable bound conjunctions.
func TestRandomBoundSystems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSolver()
		x := s.NewReal("x")
		lo := DRat{A: new(big.Rat).SetInt64(-1000), B: new(big.Rat)}
		hi := DRat{A: new(big.Rat).SetInt64(1000), B: new(big.Rat)}
		for i := 0; i < 8; i++ {
			rhs := int64(rng.Intn(21) - 10)
			op := []Op{OpLT, OpLE, OpGE, OpGT}[rng.Intn(4)]
			s.Assert(Atom(NewLinExpr().AddInt(1, x), op, big.NewRat(rhs, 1)))
			b := DRatFromInt(rhs)
			switch op {
			case OpLT:
				b = DRat{A: b.A, B: new(big.Rat).SetInt64(-1)}
				if b.Cmp(hi) < 0 {
					hi = b
				}
			case OpLE:
				if b.Cmp(hi) < 0 {
					hi = b
				}
			case OpGT:
				b = DRat{A: b.A, B: new(big.Rat).SetInt64(1)}
				if b.Cmp(lo) > 0 {
					lo = b
				}
			case OpGE:
				if b.Cmp(lo) > 0 {
					lo = b
				}
			}
		}
		wantSat := lo.Cmp(hi) <= 0
		res, err := s.Check()
		if err != nil {
			return false
		}
		return (res == Sat) == wantSat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	s := NewSolver()
	a := s.NewBool("a")
	x := s.NewReal("x")
	s.Assert(Or(Bool(a), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 1)))
	mustCheck(t, s)
	st := s.Stats()
	if st.SATVars == 0 || st.RealVars != 1 {
		t.Errorf("stats look wrong: %+v", st)
	}
}

func TestResultString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" {
		t.Error("Result strings wrong")
	}
	if Result(9).String() == "" {
		t.Error("unknown Result must stringify")
	}
}

func TestDRatArithmetic(t *testing.T) {
	a := DRatFromInt(3)
	b := NewDRat(big.NewRat(1, 2), big.NewRat(-1, 1))
	sum := a.Add(b)
	if sum.A.Cmp(big.NewRat(7, 2)) != 0 || sum.B.Cmp(big.NewRat(-1, 1)) != 0 {
		t.Errorf("sum = %v", sum)
	}
	if a.Cmp(b) <= 0 {
		t.Error("3 should be > 1/2 - delta")
	}
	// Delta ordering: (1, -1) < (1, 0) < (1, 1).
	low := NewDRat(big.NewRat(1, 1), big.NewRat(-1, 1))
	mid := DRatFromInt(1)
	high := NewDRat(big.NewRat(1, 1), big.NewRat(1, 1))
	if !(low.Cmp(mid) < 0 && mid.Cmp(high) < 0) {
		t.Error("delta ordering broken")
	}
	if got := high.Substitute(big.NewRat(1, 4)); got.Cmp(big.NewRat(5, 4)) != 0 {
		t.Errorf("Substitute = %v, want 5/4", got)
	}
	if got := low.Float64(0.25); got != 0.75 {
		t.Errorf("Float64 = %v, want 0.75", got)
	}
	if s := b.String(); s == "" {
		t.Error("String empty")
	}
	neg := a.Neg()
	if neg.A.Cmp(big.NewRat(-3, 1)) != 0 {
		t.Errorf("Neg = %v", neg)
	}
	if !a.Sub(a).Equal(DRatFromInt(0)) {
		t.Error("a - a != 0")
	}
	c := a.Clone()
	c.A.SetInt64(99)
	if a.A.Cmp(big.NewRat(3, 1)) != 0 {
		t.Error("Clone aliases storage")
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestFormulaStrings(t *testing.T) {
	x := 0
	f := And(Bool(1), Or(Not(Bool(2)), AtomFloat(NewLinExpr().AddInt(2, x), OpLE, 3)))
	if f.String() == "" {
		t.Error("formula String empty")
	}
	if True.String() != "true" || False.String() != "false" {
		t.Error("constant strings wrong")
	}
	for _, op := range []Op{OpLT, OpLE, OpEQ, OpGE, OpGT, OpNE} {
		if op.String() == "" {
			t.Error("op string empty")
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard random instance with a tiny budget must return ErrCanceled.
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	n := 30
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewBool("")
	}
	for i := 0; i < 130; i++ {
		lits := make([]*Formula, 3)
		for j := range lits {
			v := Bool(vars[rng.Intn(n)])
			if rng.Intn(2) == 0 {
				lits[j] = Not(v)
			} else {
				lits[j] = v
			}
		}
		s.Assert(Or(lits...))
	}
	s.MaxConflicts = 1
	_, err := s.Check()
	// Either it solved within one conflict (possible) or it must report the
	// budget; both are acceptable, but an unexpected error is not. The budget
	// error matches both sentinels for backward compatibility.
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget error does not match ErrBudgetExceeded: %v", err)
	}
}

// pigeonhole asserts the unsatisfiable pigeonhole principle PHP(holes+1,
// holes): holes+1 pigeons each in some hole, no hole holding two. CDCL
// without symmetry reasoning needs exponential time in holes, which makes it
// a reliable long-running instance for cancellation tests.
func pigeonhole(s *Solver, holes int) {
	pigeons := holes + 1
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		fs := make([]*Formula, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = s.NewBool(fmt.Sprintf("p%dh%d", p, h))
			fs[h] = Bool(vars[p][h])
		}
		s.Assert(Or(fs...))
	}
	for h := 0; h < holes; h++ {
		col := make([]int, pigeons)
		for p := 0; p < pigeons; p++ {
			col[p] = vars[p][h]
		}
		s.AssertAtMostK(col, 1)
	}
}

// mixedInstance builds a small satisfiable QF_LRA instance exercising both
// the boolean core and the simplex, returning variable handles for model
// comparison.
func mixedInstance(s *Solver) (a, b, x, y int) {
	a = s.NewBool("a")
	b = s.NewBool("b")
	x = s.NewReal("x")
	y = s.NewReal("y")
	s.Assert(Or(Bool(a), Bool(b)))
	s.Assert(Implies(Bool(a), AtomFloat(NewLinExpr().AddInt(1, x), OpGE, 2)))
	s.Assert(Implies(Bool(b), AtomFloat(NewLinExpr().AddInt(1, x), OpLE, -1)))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, x).AddInt(1, y), OpEQ, 5))
	s.Assert(AtomFloat(NewLinExpr().AddInt(1, y), OpGE, 0))
	return
}

// TestCheckContextMatchesCheck: under a live context, with and without
// certification, CheckContext returns the verdict and the model a plain
// Check computes.
func TestCheckContextMatchesCheck(t *testing.T) {
	for _, certify := range []bool{false, true} {
		ref := NewSolver()
		ref.Certify = certify
		a, b, x, y := mixedInstance(ref)
		if res := mustCheck(t, ref); res != Sat {
			t.Fatalf("certify=%t: Check = %v, want sat", certify, res)
		}
		s := NewSolver()
		s.Certify = certify
		mixedInstance(s)
		ctx, cancel := context.WithCancel(context.Background())
		res, err := s.CheckContext(ctx)
		cancel()
		if err != nil || res != Sat {
			t.Fatalf("certify=%t: CheckContext = %v, %v; want sat", certify, res, err)
		}
		if s.BoolValue(a) != ref.BoolValue(a) || s.BoolValue(b) != ref.BoolValue(b) ||
			s.RealValue(x).Cmp(ref.RealValue(x)) != 0 || s.RealValue(y).Cmp(ref.RealValue(y)) != 0 {
			t.Fatalf("certify=%t: CheckContext's model differs from Check's", certify)
		}
	}
}

// TestCheckContextRejectsSpoiledCertificate: once an uncertified Check has
// spoiled the proof trace, a certified Check still answers (its certificate
// reports the gap), but CheckContext turns the failed verification into an
// error.
func TestCheckContextRejectsSpoiledCertificate(t *testing.T) {
	// Under the GRIDATTACK_CERTIFY lane no Check runs uncertified; pin the
	// default off so the gap exists.
	defer SetCertifyDefault(SetCertifyDefault(false))
	s := NewSolver()
	x := s.NewReal("x")
	s.Assert(atomCmp(x, OpGE, 0))
	if _, err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.Certify = true
	if _, err := s.Check(); err != nil {
		t.Fatalf("Check with a spoiled trace: %v, want a verdict", err)
	}
	if _, err := s.CheckContext(context.Background()); err == nil {
		t.Fatal("CheckContext returned a verdict whose certificate is spoiled")
	}
}

func TestCheckContextPreCanceled(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.CheckContext(ctx); err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestCheckContextCancellationMidSearch cancels a hard instance mid-search
// and checks both that the cancellation is honored promptly and that the
// watcher goroutine is not leaked.
func TestCheckContextCancellationMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSolver()
	pigeonhole(s, 12) // far beyond what solves in 30ms
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	start := time.Now()
	_, err := s.CheckContext(ctx)
	cancel()
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The watcher goroutine must have exited. NumGoroutine is inherently
	// racy against runtime helpers, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxDurationHonored runs a hard instance under MaxDuration (the
// solver's own budget rather than a context) and expects the search to stop
// on its own.
func TestMaxDurationHonored(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 12)
	s.MaxDuration = 30 * time.Millisecond
	start := time.Now()
	_, err := s.Check()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want a budget error matching ErrCanceled and ErrBudgetExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to be honored", elapsed)
	}
}
