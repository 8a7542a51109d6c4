package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func inf() float64 { return math.Inf(1) }

func TestSimpleLP(t *testing.T) {
	// min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0.
	// Optimum at (2, 2), objective -6.
	p := NewProblem()
	x := p.AddVariable(0, 3, -1, "x")
	y := p.AddVariable(0, 2, -2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-6)) > 1e-7 {
		t.Errorf("objective = %v, want -6", sol.Objective)
	}
	if math.Abs(sol.Value(x)-2) > 1e-7 || math.Abs(sol.Value(y)-2) > 1e-7 {
		t.Errorf("x,y = %v,%v, want 2,2", sol.Value(x), sol.Value(y))
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 3y  s.t.  x + y == 5, x <= 2 => y >= 3 => optimum x=2,y=3, obj 11.
	p := NewProblem()
	x := p.AddVariable(0, 2, 1, "x")
	y := p.AddVariable(0, inf(), 3, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-11) > 1e-7 {
		t.Errorf("objective = %v, want 11", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 3 and x <= 1 with x in [0, 10].
	p := NewProblem()
	x := p.AddVariable(0, 10, 1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 3)
	p.AddConstraint([]Term{{x, 1}}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem()
	p.AddVariable(5, 2, 1, "x") // lower > upper
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x unbounded above.
	p := NewProblem()
	x := p.AddVariable(0, inf(), -1, "x")
	p.AddConstraint([]Term{{x, 1}}, GE, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x^+ ... modeled as: min y s.t. y >= x, y >= -x, x == -7 (x free).
	p := NewProblem()
	x := p.AddVariable(math.Inf(-1), inf(), 0, "x")
	y := p.AddVariable(math.Inf(-1), inf(), 1, "y")
	p.AddConstraint([]Term{{y, 1}, {x, -1}}, GE, 0)
	p.AddConstraint([]Term{{y, 1}, {x, 1}}, GE, 0)
	p.AddConstraint([]Term{{x, 1}}, EQ, -7)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-7) > 1e-7 {
		t.Errorf("objective = %v, want 7 (|x| at x=-7)", sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x  s.t.  -x <= -3  (i.e. x >= 3), x in [0, 10].
	p := NewProblem()
	x := p.AddVariable(0, 10, 1, "x")
	p.AddConstraint([]Term{{x, -1}}, LE, -3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-7 {
		t.Fatalf("got %v obj %v, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate problem (multiple constraints active at the
	// optimum). Checks anti-cycling.
	p := NewProblem()
	x1 := p.AddVariable(0, inf(), -0.75, "x1")
	x2 := p.AddVariable(0, inf(), 150, "x2")
	x3 := p.AddVariable(0, inf(), -0.02, "x3")
	x4 := p.AddVariable(0, inf(), 6, "x4")
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	// Known optimum of Beale's cycling example: objective -0.05.
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

// kleeMinty builds the Klee-Minty cube of dimension n:
//
//	min -sum_j 2^(n-1-j) x_j
//	s.t. sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^(i+1)   for i = 0..n-1, x >= 0
//
// Dantzig's rule needs exponentially many pivots on it; the optimum is
// x_{n-1} = 5^n.
func kleeMinty(n int) *Problem {
	p := NewProblem()
	for j := 0; j < n; j++ {
		p.AddVariable(0, inf(), -math.Ldexp(1, n-1-j), "x")
	}
	for i := 0; i < n; i++ {
		terms := []Term{{i, 1}}
		for j := 0; j < i; j++ {
			terms = append(terms, Term{j, math.Ldexp(1, i-j+1)})
		}
		p.AddConstraint(terms, LE, math.Pow(5, float64(i+1)))
	}
	return p
}

// TestKleeMintyBland: the 12-dimensional Klee-Minty cube outlasts
// blandAfter Dantzig iterations, so the solve must finish under Bland's rule
// at the true optimum.
func TestKleeMintyBland(t *testing.T) {
	sol, err := kleeMinty(12).Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if want := -math.Pow(5, 12); sol.Objective != want {
		t.Errorf("objective = %v, want %v", sol.Objective, want)
	}
	if sol.Pivots <= blandAfter {
		t.Errorf("pivots = %d, want > %d so Bland's rule is reached", sol.Pivots, blandAfter)
	}
}

func TestUnknownVariableInConstraint(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, 1, 1, "x")
	p.AddConstraint([]Term{{5, 1}}, LE, 1)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for unknown variable reference")
	}
}

func TestSenseStatusStrings(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("Sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("Status strings wrong")
	}
	if Sense(99).String() == "" || Status(99).String() == "" {
		t.Error("unknown enum String must be non-empty")
	}
}

// bruteForceBoxLP minimizes c'x over the box [0,1]^n intersected with the
// constraints by dense grid sampling; used as an oracle for random problems.
func bruteForceBoxLP(cost []float64, rows [][]float64, senses []Sense, rhs []float64, steps int) (float64, bool) {
	n := len(cost)
	best := math.Inf(1)
	found := false
	var rec func(idx int, x []float64)
	rec = func(idx int, x []float64) {
		if idx == n {
			for r := range rows {
				var s float64
				for j := range x {
					s += rows[r][j] * x[j]
				}
				switch senses[r] {
				case LE:
					if s > rhs[r]+1e-9 {
						return
					}
				case GE:
					if s < rhs[r]-1e-9 {
						return
					}
				case EQ:
					if math.Abs(s-rhs[r]) > 1e-9 {
						return
					}
				}
			}
			var obj float64
			for j := range x {
				obj += cost[j] * x[j]
			}
			if obj < best {
				best = obj
				found = true
			}
			return
		}
		for k := 0; k <= steps; k++ {
			x[idx] = float64(k) / float64(steps)
			rec(idx+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best, found
}

// Property: on random box LPs whose constraint data are multiples of 1/4,
// the simplex optimum is <= any feasible grid point found by brute force
// (and the LP is feasible whenever the grid oracle finds a point).
func TestSimplexDominatesGridOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		mRows := 1 + rng.Intn(3)
		cost := make([]float64, n)
		for j := range cost {
			cost[j] = float64(rng.Intn(9) - 4)
		}
		rows := make([][]float64, mRows)
		senses := make([]Sense, mRows)
		rhs := make([]float64, mRows)
		for r := range rows {
			rows[r] = make([]float64, n)
			for j := range rows[r] {
				rows[r][j] = float64(rng.Intn(5) - 2)
			}
			senses[r] = []Sense{LE, GE}[rng.Intn(2)]
			rhs[r] = float64(rng.Intn(9)-4) / 2
		}
		gridBest, gridFound := bruteForceBoxLP(cost, rows, senses, rhs, 4)

		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddVariable(0, 1, cost[j], "")
		}
		for r := range rows {
			terms := make([]Term, n)
			for j := range rows[r] {
				terms[j] = Term{j, rows[r][j]}
			}
			p.AddConstraint(terms, senses[r], rhs[r])
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		if gridFound {
			// Grid point is feasible, so the LP must be feasible and at
			// least as good.
			if sol.Status != Optimal {
				return false
			}
			return sol.Objective <= gridBest+1e-6
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the simplex solution always satisfies the constraints and bounds
// it was given.
func TestSimplexSolutionFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		mRows := 1 + rng.Intn(4)
		p := NewProblem()
		lo := make([]float64, n)
		hi := make([]float64, n)
		for j := 0; j < n; j++ {
			lo[j] = -float64(rng.Intn(3))
			hi[j] = lo[j] + 1 + float64(rng.Intn(4))
			p.AddVariable(lo[j], hi[j], rng.NormFloat64(), "")
		}
		type row struct {
			terms []Term
			sense Sense
			rhs   float64
		}
		var rowsAdded []row
		for r := 0; r < mRows; r++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				c := float64(rng.Intn(5) - 2)
				if c != 0 {
					terms = append(terms, Term{j, c})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
			rhsv := float64(rng.Intn(7) - 3)
			p.AddConstraint(terms, sense, rhsv)
			rowsAdded = append(rowsAdded, row{terms, sense, rhsv})
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		if sol.Status != Optimal {
			return true // nothing to verify
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < lo[j]-1e-6 || sol.X[j] > hi[j]+1e-6 {
				return false
			}
		}
		for _, r := range rowsAdded {
			var s float64
			for _, tm := range r.terms {
				s += tm.Coeff * sol.X[tm.Var]
			}
			switch r.sense {
			case LE:
				if s > r.rhs+1e-6 {
					return false
				}
			case GE:
				if s < r.rhs-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(s-r.rhs) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
