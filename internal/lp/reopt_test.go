package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomLP builds a small LP with boxed, one-sided, free and fixed columns
// and EQ, LE and GE rows of integer data. Its rows pass through a seeded
// point, so most LPs are feasible, and some have a cost on an unbounded
// column.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	nVars := 3 + rng.Intn(6)
	x0 := make([]float64, nVars)
	for j := range x0 {
		lo := float64(rng.Intn(5) - 2)
		hi := lo + float64(1+rng.Intn(3))
		switch rng.Intn(5) {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = math.Inf(1)
		case 2:
			lo, hi = math.Inf(-1), math.Inf(1)
		case 3:
			if rng.Intn(3) == 0 {
				hi = lo
			}
		}
		x0[j] = math.Max(lo, math.Min(hi, float64(rng.Intn(5)-2)))
		p.AddVariable(lo, hi, float64(rng.Intn(11)-5), fmt.Sprintf("x%d", j))
	}
	for i, nRows := 0, 2+rng.Intn(6); i < nRows; i++ {
		var terms []Term
		rhs := 0.0
		for j := 0; j < nVars; j++ {
			if rng.Intn(3) > 0 {
				c := float64(rng.Intn(9) - 4)
				terms = append(terms, Term{Var: j, Coeff: c})
				rhs += c * x0[j]
			}
		}
		sense := []Sense{LE, EQ, GE}[rng.Intn(3)]
		switch {
		case sense == LE && rng.Intn(2) == 0:
			rhs += float64(1 + rng.Intn(3))
		case sense == GE && rng.Intn(2) == 0:
			rhs -= float64(1 + rng.Intn(3))
		}
		p.AddConstraint(terms, sense, rhs)
	}
	return p
}

// modified returns p with the columns in fix fixed at 0, the rows in drop
// removed and the right-hand sides rhs: the problem Reoptimize solves.
func modified(p *Problem, fix, drop []int, rhs []float64) *Problem {
	q := NewProblem()
	for j := range p.lower {
		lo, hi := p.lower[j], p.upper[j]
		if slices.Contains(fix, j) {
			lo, hi = 0, 0
		}
		q.AddVariable(lo, hi, p.cost[j], p.names[j])
	}
	for i, c := range p.cons {
		if !slices.Contains(drop, i) {
			q.AddConstraint(c.terms, c.sense, rhs[i])
		}
	}
	return q
}

// sameBits reports whether two solutions have the same status, pivots,
// objective and X bits.
func sameBits(a, b *Solution) bool {
	if a.Status != b.Status || a.Pivots != b.Pivots || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// change is one seeded modification of a baseline LP for Reoptimize.
type change struct {
	fix, drop []int
	rhs       []float64
}

// randomChange fixes up to two columns, drops up to two rows and perturbs
// some right-hand sides of p.
func randomChange(rng *rand.Rand, p *Problem) change {
	var c change
	for k := rng.Intn(3); k > 0; k-- {
		c.fix = append(c.fix, rng.Intn(len(p.lower)))
	}
	for k := rng.Intn(3); k > 0; k-- {
		c.drop = append(c.drop, rng.Intn(len(p.cons)))
	}
	c.rhs = make([]float64, len(p.cons))
	for i, con := range p.cons {
		c.rhs[i] = con.rhs
		if rng.Intn(3) == 0 {
			c.rhs[i] += float64(rng.Intn(5)-2) * 0.5
		}
	}
	return c
}

// TestReoptimizeMatchesColdSolve is an A/B of Reoptimize against a cold
// Solve of the modified problem on seeded random LPs: fixed columns,
// dropped EQ, LE and GE rows and perturbed right-hand sides must give the
// cold solve's status, Infeasible and Unbounded included, and its objective
// within 1e-9 relative.
func TestReoptimizeMatchesColdSolve(t *testing.T) {
	statuses := map[Status]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		_, b, err := p.SolveBaseline()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if b == nil {
			continue
		}
		for k := 0; k < 4; k++ {
			c := randomChange(rng, p)
			got, err := b.Reoptimize(c.fix, c.drop, c.rhs)
			if err != nil {
				t.Fatalf("seed %d change %d: %v", seed, k, err)
			}
			want, err := modified(p, c.fix, c.drop, c.rhs).Solve()
			if err != nil {
				t.Fatalf("seed %d change %d: cold: %v", seed, k, err)
			}
			if got.Status != want.Status {
				t.Fatalf("seed %d change %+v: status %v, cold %v", seed, c, got.Status, want.Status)
			}
			statuses[got.Status]++
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
				t.Fatalf("seed %d change %+v: objective %v, cold %v", seed, c, got.Objective, want.Objective)
			}
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Errorf("no re-optimization came out %v: %v", st, statuses)
		}
	}
}

// TestReoptimizeNoChange: re-optimizing without a change returns the
// baseline's objective and X bit for bit, with no pivot.
func TestReoptimizeNoChange(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		p := randomLP(rand.New(rand.NewSource(seed)))
		sol, b, err := p.SolveBaseline()
		if err != nil || b == nil {
			continue
		}
		got, err := b.Reoptimize(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := *sol
		want.Pivots = 0
		if !sameBits(got, &want) {
			t.Fatalf("seed %d: %+v, baseline %+v", seed, got, sol)
		}
	}
}

// TestReoptimizeHistoryIndependent: a re-optimization's bits depend only on
// its change. The same changes, listed in either order, give the same bits
// on a fresh Baseline and on one whose scratch earlier changes used.
func TestReoptimizeHistoryIndependent(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		_, used, err := p.SolveBaseline()
		if err != nil || used == nil {
			continue
		}
		changes := []change{randomChange(rng, p), randomChange(rng, p), randomChange(rng, p)}
		for k, c := range changes {
			_, fresh, err := p.SolveBaseline()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Reoptimize(c.fix, c.drop, c.rhs)
			if err != nil {
				t.Fatal(err)
			}
			fix, drop := slices.Clone(c.fix), slices.Clone(c.drop)
			slices.Reverse(fix)
			slices.Reverse(drop)
			got, err := used.Reoptimize(fix, drop, c.rhs)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("seed %d change %d: reused scratch, reversed lists %+v, fresh %+v", seed, k, got, want)
			}
		}
	}
}

// sameCertificate reports whether two solutions have the same basis and the
// same bound side for each of n columns.
func sameCertificate(a, b *Solution, n int) bool {
	if !slices.Equal(a.Basis, b.Basis) {
		return false
	}
	for j := 0; j < n; j++ {
		if a.AtUpper(j) != b.AtUpper(j) {
			return false
		}
	}
	return true
}

// TestReoptimizeRHSMatchesFullPath: a change of right-hand sides alone,
// from 1e-14 to 5% relative, returns the full path's status, objective, X,
// basis and bound sides bit for bit, whether the basic values stay in
// bounds (moveRHS answers) or not (the full path runs). Both happen.
func TestReoptimizeRHSMatchesFullPath(t *testing.T) {
	var inBounds, fallThrough int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		_, b, err := p.SolveBaseline()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if b == nil {
			continue
		}
		for _, scale := range []float64{1e-14, 1e-10, 1e-6, 1e-3, 0.05} {
			rhs := make([]float64, len(p.cons))
			for i, c := range p.cons {
				rhs[i] = c.rhs + scale*(2*rng.Float64()-1)*math.Max(1, math.Abs(c.rhs))
			}
			want, err := b.reoptimize(nil, nil, rhs)
			if err != nil {
				t.Fatalf("seed %d scale %g: full path: %v", seed, scale, err)
			}
			if b.moveRHS(rhs) != nil {
				inBounds++
			} else {
				fallThrough++
			}
			got, err := b.Reoptimize(nil, nil, rhs)
			if err != nil {
				t.Fatalf("seed %d scale %g: %v", seed, scale, err)
			}
			if !sameBits(got, want) || (want.Status == Optimal && !sameCertificate(got, want, len(b.t.status))) {
				t.Fatalf("seed %d scale %g: %+v, full path %+v", seed, scale, got, want)
			}
		}
	}
	t.Logf("%d in-bounds returns, %d fall-throughs", inBounds, fallThrough)
	if inBounds == 0 || fallThrough == 0 {
		t.Fatalf("%d in-bounds returns and %d fall-throughs: want both", inBounds, fallThrough)
	}
}

// TestReoptimizeRHSAllocatesNoTableau: an in-bounds right-hand-side change
// is answered from the baseline tableau, without the scratch copy.
func TestReoptimizeRHSAllocatesNoTableau(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		p := randomLP(rand.New(rand.NewSource(seed)))
		sol, b, err := p.SolveBaseline()
		if err != nil || b == nil {
			continue
		}
		rhs := make([]float64, len(p.cons))
		for i, c := range p.cons {
			rhs[i] = c.rhs * (1 + 1e-14)
		}
		if b.moveRHS(rhs) == nil {
			continue
		}
		got, err := b.Reoptimize(nil, nil, rhs)
		if err != nil || got.Status != Optimal || got.Pivots != 0 {
			t.Fatalf("seed %d: %+v, %v (baseline %+v)", seed, got, err, sol)
		}
		if b.work != nil {
			t.Fatalf("seed %d: an in-bounds right-hand-side change allocated the scratch tableau", seed)
		}
		return
	}
	t.Fatal("no LP stayed in bounds")
}
