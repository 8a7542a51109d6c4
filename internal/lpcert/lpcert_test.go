package lpcert_test

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/lp"
	"gridattack/internal/lpcert"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }

// twoRowLP is
//
//	min  x0 + 2 x1
//	s.t. x0 + x1 >= 2     (row 0; slack column 2, at its upper bound 0)
//	     x0      <= 3/2   (row 1; slack column 3, at its lower bound 0)
//	     0 <= x0, x1 <= 3
//
// whose optimum x = (3/2, 1/2), cost 5/2, has basis {x0, x1}. Columns 4
// and 5 are the rows' artificials.
func twoRowLP() *lpcert.LP {
	return &lpcert.LP{
		Lower: []*big.Rat{r(0, 1), r(0, 1)},
		Upper: []*big.Rat{r(3, 1), r(3, 1)},
		Cost:  []*big.Rat{r(1, 1), r(2, 1)},
		Rows: []lpcert.Row{
			{Cols: []int{0, 1}, Coefs: []*big.Rat{r(1, 1), r(1, 1)}, Sense: lpcert.GE, RHS: r(2, 1)},
			{Cols: []int{0}, Coefs: []*big.Rat{r(1, 1)}, Sense: lpcert.LE, RHS: r(3, 2)},
		},
	}
}

// upperSet is an AtUpper for a fixed set of columns.
func upperSet(cols ...int) func(int) bool {
	return func(j int) bool {
		for _, c := range cols {
			if c == j {
				return true
			}
		}
		return false
	}
}

func TestCheckHandBuilt(t *testing.T) {
	opt, err := lpcert.Check(context.Background(), twoRowLP(), lpcert.Basis{Basic: []int{0, 1}, AtUpper: upperSet(2)})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cmp(r(5, 2)) != 0 {
		t.Fatalf("optimum %s, want 5/2", opt.RatString())
	}
	// The same point from the basis in the other row order.
	if _, err := lpcert.Check(context.Background(), twoRowLP(), lpcert.Basis{Basic: []int{1, 0}, AtUpper: upperSet(2)}); err != nil {
		t.Fatalf("row order: %v", err)
	}
}

func TestCheckRejectsBadBases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		basis lpcert.Basis
		want  string
	}{
		// x1 out, slack 3 in: x0 = 2, so slack 3 = 3/2 - 2 < 0.
		{"swapped basic column", lpcert.Basis{Basic: []int{0, 3}, AtUpper: upperSet(2)}, "below its lower bound"},
		// x1 stays basic but x0's row goes to the slack: x1 = 2, cost 4
		// is not optimal, and slack 3's reduced cost says so.
		{"swapped for a slack", lpcert.Basis{Basic: []int{1, 3}, AtUpper: upperSet(2)}, "reduced cost"},
		// Slack 3 (<=, [0, +Inf)) flipped to its upper bound.
		{"flipped to an infinite upper bound", lpcert.Basis{Basic: []int{0, 1}, AtUpper: upperSet(2, 3)}, "infinite upper bound"},
		// x1 flipped to its upper bound 3 with slack 2 and x0 basic: the
		// point (3/2, 3) is feasible, but x1's reduced cost 2 says lower it.
		{"flipped structural", lpcert.Basis{Basic: []int{2, 0}, AtUpper: upperSet(1)}, "at its upper bound has reduced cost 2 > 0"},
		// x1 and artificial 4 are both the unit column of row 0.
		{"singular", lpcert.Basis{Basic: []int{1, 4}, AtUpper: upperSet(2)}, "singular basis"},
		// x0 = 2 from row 0, so artificial 5 must absorb -1/2.
		{"nonzero artificial", lpcert.Basis{Basic: []int{0, 5}, AtUpper: upperSet(2)}, "basic artificial of row 1 is -1/2"},
		{"repeated column", lpcert.Basis{Basic: []int{0, 0}, AtUpper: upperSet(2)}, "is basic in rows"},
		{"short basis", lpcert.Basis{Basic: []int{0}, AtUpper: upperSet(2)}, "basis has 1 columns for 2 rows"},
		{"out of range", lpcert.Basis{Basic: []int{0, 6}, AtUpper: upperSet(2)}, "out of range"},
	} {
		_, err := lpcert.Check(context.Background(), twoRowLP(), tc.basis)
		if !errors.Is(err, lpcert.ErrRejected) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a rejection naming %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckRejectsMalformedLP(t *testing.T) {
	bad := twoRowLP()
	bad.Rows[0].Cols = []int{0, 7}
	if _, err := lpcert.Check(context.Background(), bad, lpcert.Basis{Basic: []int{0, 1}, AtUpper: upperSet(2)}); !errors.Is(err, lpcert.ErrRejected) {
		t.Errorf("unknown column: %v", err)
	}
	bad = twoRowLP()
	bad.Rows[1].Sense = 0
	if _, err := lpcert.Check(context.Background(), bad, lpcert.Basis{Basic: []int{0, 1}, AtUpper: upperSet(2)}); !errors.Is(err, lpcert.ErrRejected) {
		t.Errorf("unknown sense: %v", err)
	}
}

func TestCheckHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lpcert.Check(ctx, twoRowLP(), lpcert.Basis{Basic: []int{0, 1}, AtUpper: upperSet(2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// paper5OPF returns paper5's OPF LP under its true topology, its rational
// mirror and the float solver's optimal solution.
func paper5OPF(t *testing.T) (*lp.Problem, *lpcert.LP, *lp.Solution) {
	t.Helper()
	c, err := cases.ByName("paper5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := opf.AngleLP(c.Grid, c.Grid.TrueTopology(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve()
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("paper5 OPF: %v %v", sol, err)
	}
	return p, opf.ExactLP(p), sol
}

func TestCheckPaper5OPF(t *testing.T) {
	p, exact, sol := paper5OPF(t)
	ctx := context.Background()
	opt, err := lpcert.Check(ctx, exact, lpcert.Basis{Basic: sol.Basis, AtUpper: sol.AtUpper})
	if err != nil {
		t.Fatalf("float basis refused: %v", err)
	}
	if f, _ := opt.Float64(); math.Abs(f-sol.Objective) > 1e-9*math.Abs(sol.Objective) {
		t.Fatalf("exact optimum %v, float %v", f, sol.Objective)
	}

	n := p.NumVariables()
	nCols := n + 2*p.NumConstraints() // every row is an equality: no slacks
	basic := make([]bool, nCols)
	for _, j := range sol.Basis {
		basic[j] = true
	}
	withBasis := func(swap func(b []int)) []int {
		b := append([]int(nil), sol.Basis...)
		swap(b)
		return b
	}

	// Every nonbasic structural column swapped into the row of every basic
	// generator: paper5's optimum is unique and not degenerate, so each
	// swap must be refused.
	swapped := 0
	for row, jb := range sol.Basis {
		if jb >= n {
			continue
		}
		if lo, hi, cost := p.Variable(jb); cost == 0 || lo == hi {
			continue
		}
		for j := 0; j < n; j++ {
			if basic[j] {
				continue
			}
			b := withBasis(func(b []int) { b[row] = j })
			if _, err := lpcert.Check(ctx, exact, lpcert.Basis{Basic: b, AtUpper: sol.AtUpper}); !errors.Is(err, lpcert.ErrRejected) {
				t.Errorf("column %d swapped into row %d for %d: %v", j, row, jb, err)
			}
			swapped++
		}
	}
	if swapped == 0 {
		t.Fatal("paper5 has no basic generator to swap out")
	}

	// Every nonbasic generator with a nonzero cost flipped between its
	// bounds.
	flipped := 0
	for j := 0; j < n; j++ {
		lo, hi, cost := p.Variable(j)
		if basic[j] || cost == 0 || lo == hi || math.IsInf(hi, 1) || math.IsInf(lo, -1) {
			continue
		}
		flip := func(k int) bool { return sol.AtUpper(k) != (k == j) }
		if _, err := lpcert.Check(ctx, exact, lpcert.Basis{Basic: sol.Basis, AtUpper: flip}); !errors.Is(err, lpcert.ErrRejected) {
			t.Errorf("column %d flipped: %v", j, err)
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatal("paper5 has no nonbasic generator to flip")
	}

	// Singular: every artificial except row 0's, plus a column with no
	// entry in row 0.
	m := p.NumConstraints()
	terms, _, _ := p.Constraint(0)
	inRow0 := map[int]bool{}
	for _, tm := range terms {
		inRow0[tm.Var] = true
	}
	b := make([]int, m)
	for i := range b {
		b[i] = n + i
	}
	for j := 0; j < n; j++ {
		if !inRow0[j] {
			b[0] = j
			break
		}
	}
	if _, err := lpcert.Check(ctx, exact, lpcert.Basis{Basic: b, AtUpper: sol.AtUpper}); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Errorf("singular basis: %v", err)
	}

	// A basic artificial with a nonzero value: the all-artificial basis
	// with every structural column at a bound leaves a load unserved.
	for i := range b {
		b[i] = n + i
	}
	if _, err := lpcert.Check(ctx, exact, lpcert.Basis{Basic: b, AtUpper: func(int) bool { return false }}); err == nil || !strings.Contains(err.Error(), "basic artificial") {
		t.Errorf("all-artificial basis: %v", err)
	}
}

// TestCheckAcceptsFloatOptima: on random bounded LPs with equality, <= and
// >= rows and free columns, every Optimal basis of the float simplex is
// exactly optimal. The data are small integers, so an exact violation
// would be at least 1/det(B), far outside the float tolerances.
func TestCheckAcceptsFloatOptima(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	optimal := 0
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		p := lp.NewProblem()
		n := 2 + rng.Intn(6)
		for j := 0; j < n; j++ {
			cost := float64(rng.Intn(9) - 4)
			if rng.Intn(5) == 0 {
				p.AddVariable(math.Inf(-1), math.Inf(1), cost, "")
				continue
			}
			lo := float64(rng.Intn(7) - 3)
			p.AddVariable(lo, lo+float64(rng.Intn(6)), cost, "")
		}
		m := 1 + rng.Intn(5)
		for i := 0; i < m; i++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if rng.Intn(3) > 0 {
					terms = append(terms, lp.Term{Var: j, Coeff: float64(rng.Intn(7) - 3)})
				}
			}
			p.AddConstraint(terms, []lp.Sense{lp.LE, lp.EQ, lp.GE}[rng.Intn(3)], float64(rng.Intn(11)-5))
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != lp.Optimal {
			continue
		}
		optimal++
		opt, err := lpcert.Check(context.Background(), opf.ExactLP(p), lpcert.Basis{Basic: sol.Basis, AtUpper: sol.AtUpper})
		if err != nil {
			t.Fatalf("trial %d: float optimum refused: %v", trial, err)
		}
		f, _ := opt.Float64()
		if math.Abs(f-sol.Objective) > 1e-9*math.Max(1, math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: exact optimum %v, float %v", trial, f, sol.Objective)
		}
	}
	if optimal < trials/4 {
		t.Fatalf("only %d of %d random LPs were optimal", optimal, trials)
	}
}

// TestExactLPMirrorsFloatData: every entry of the rational LP is
// smt.RatFromFloat of the float entry, in the float LP's numbering, on the
// true topologies of paper5 through synth57.
func TestExactLPMirrorsFloatData(t *testing.T) {
	eq := func(q *big.Rat, f float64) bool { return q.Cmp(smt.RatFromFloat(f)) == 0 }
	senses := map[lp.Sense]lpcert.Sense{lp.LE: lpcert.LE, lp.EQ: lpcert.EQ, lp.GE: lpcert.GE}
	for _, name := range []string{"paper5", "ieee14", "synth30", "synth57"} {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opf.AngleLP(c.Grid, c.Grid.TrueTopology(), nil)
		if err != nil {
			t.Fatal(err)
		}
		q := opf.ExactLP(p)
		if len(q.Cost) != p.NumVariables() || len(q.Rows) != p.NumConstraints() {
			t.Fatalf("%s: shape %dx%d, want %dx%d", name, len(q.Rows), len(q.Cost), p.NumConstraints(), p.NumVariables())
		}
		for j := range q.Cost {
			lo, hi, cost := p.Variable(j)
			if !eq(q.Cost[j], cost) ||
				(q.Lower[j] == nil) != math.IsInf(lo, -1) || q.Lower[j] != nil && !eq(q.Lower[j], lo) ||
				(q.Upper[j] == nil) != math.IsInf(hi, 1) || q.Upper[j] != nil && !eq(q.Upper[j], hi) {
				t.Fatalf("%s: column %d differs", name, j)
			}
		}
		for i, row := range q.Rows {
			terms, sense, rhs := p.Constraint(i)
			if !eq(row.RHS, rhs) || len(row.Cols) != len(terms) || row.Sense != senses[sense] {
				t.Fatalf("%s: row %d differs", name, i)
			}
			for k, tm := range terms {
				if row.Cols[k] != tm.Var || !eq(row.Coefs[k], tm.Coeff) {
					t.Fatalf("%s: row %d term %d differs", name, i, k)
				}
			}
		}
	}
}

// BenchmarkCheckOPF times the exact check of the float optimum of each
// system's OPF under its true topology (the float solve excluded).
func BenchmarkCheckOPF(b *testing.B) {
	for _, name := range []string{"synth30", "synth57", "synth118"} {
		c, err := cases.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := opf.AngleLP(c.Grid, c.Grid.TrueTopology(), nil)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := p.Solve()
		if err != nil {
			b.Fatal(err)
		}
		exact := opf.ExactLP(p)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lpcert.Check(context.Background(), exact, lpcert.Basis{Basic: sol.Basis, AtUpper: sol.AtUpper}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
