package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

const (
	pivotTol    = 1e-9
	costTol     = 1e-9
	feasTol     = 1e-7
	blandAfter  = 2000 // switch to Bland's rule after this many iterations
	maxIterMult = 200  // iteration cap = maxIterMult * (rows + cols)
)

type varStatus uint8

const (
	statusBasic varStatus = iota + 1
	statusAtLower
	statusAtUpper
	statusFree // nonbasic free variable pinned at 0
)

// tableau is the working state of the bounded-variable simplex: the matrix
// holds B^-1 * A (updated by pivoting), xB holds the basic variable values.
type tableau struct {
	m, n   int // rows, total columns (structural + slack + artificial)
	a      [][]float64
	xB     []float64
	basis  []int
	status []varStatus
	lower  []float64
	upper  []float64
	nonbas []float64 // current value of each variable when nonbasic
	pivots int       // basis changes performed (diagnostic counter)

	// live is the number of leading columns that pricing and pivoting keep
	// current: all n in phase 1, only those below the first artificial in
	// phase 2, which never reads the pinned artificials' columns.
	live int

	// Scratch sized once per tableau: every column's reduced cost as of its
	// last pricing (d), and the last scaled pivot row's nonzeros (nz).
	d  []float64
	nz []nonzero
}

// nonzero is one entry of a scaled pivot row: its column and value.
type nonzero struct {
	j int
	v float64
}

// newTableau allocates an m-row tableau over n columns.
func newTableau(m, n int) *tableau {
	t := &tableau{
		m:      m,
		n:      n,
		a:      make([][]float64, m),
		xB:     make([]float64, m),
		basis:  make([]int, m),
		status: make([]varStatus, n),
		lower:  make([]float64, n),
		upper:  make([]float64, n),
		nonbas: make([]float64, n),
		live:   n,
		d:      make([]float64, n),
		nz:     make([]nonzero, 0, n),
	}
	for i := range t.a {
		t.a[i] = make([]float64, n)
	}
	return t
}

// Solve runs two-phase simplex from scratch and returns the solution.
func (p *Problem) Solve() (*Solution, error) {
	sol, _, err := p.solve(false)
	return sol, err
}

// SolveBaseline is Solve that keeps the final tableau, with B^-1 current,
// for Reoptimize. Its Solution equals Solve's bit for bit (see the package
// comment); the Baseline is nil unless that Solution is Optimal. p must not
// change afterwards.
func (p *Problem) SolveBaseline() (*Solution, *Baseline, error) {
	return p.solve(true)
}

// solve is Solve; keep makes phase 2 keep the artificial columns current and
// returns the final tableau as a Baseline.
func (p *Problem) solve(keep bool) (*Solution, *Baseline, error) {
	for i, c := range p.cons {
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= len(p.lower) {
				return nil, nil, fmt.Errorf("lp: constraint %d references unknown variable %d", i, t.Var)
			}
		}
	}
	for j := range p.lower {
		if p.lower[j] > p.upper[j] {
			return &Solution{Status: Infeasible}, nil, nil
		}
	}

	nStruct := len(p.lower)
	m := len(p.cons)
	// Columns: structural, one slack per inequality row, one artificial per row.
	nSlack := 0
	for _, c := range p.cons {
		if c.sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack + m

	t := newTableau(m, n)
	copy(t.lower, p.lower)
	copy(t.upper, p.upper)
	neg := make([]bool, m) // rows negated below, which a Baseline needs
	// Initial nonbasic placement for structural variables: the finite bound
	// nearest zero, or 0 for free variables.
	for j := 0; j < nStruct; j++ {
		switch {
		case math.IsInf(p.lower[j], -1) && math.IsInf(p.upper[j], 1):
			t.status[j] = statusFree
			t.nonbas[j] = 0
		case math.IsInf(p.lower[j], -1):
			t.status[j] = statusAtUpper
			t.nonbas[j] = p.upper[j]
		case math.IsInf(p.upper[j], 1):
			t.status[j] = statusAtLower
			t.nonbas[j] = p.lower[j]
		case math.Abs(p.lower[j]) <= math.Abs(p.upper[j]):
			t.status[j] = statusAtLower
			t.nonbas[j] = p.lower[j]
		default:
			t.status[j] = statusAtUpper
			t.nonbas[j] = p.upper[j]
		}
	}

	// Fill the constraint matrix, slacks, and artificials.
	slackIdx := nStruct
	artIdx := nStruct + nSlack
	for i, c := range p.cons {
		for _, term := range c.terms {
			t.a[i][term.Var] += term.Coeff
		}
		if c.sense != EQ {
			t.a[i][slackIdx] = 1
			if c.sense == LE {
				t.lower[slackIdx], t.upper[slackIdx] = 0, math.Inf(1)
				t.status[slackIdx] = statusAtLower
			} else { // GE: slack <= 0
				t.lower[slackIdx], t.upper[slackIdx] = math.Inf(-1), 0
				t.status[slackIdx] = statusAtUpper
			}
			slackIdx++
		}
		// The initial basis is the artificial columns, which must appear as
		// +1 unit vectors for the tableau to equal B^-1*A. When the phase-1
		// residual is negative, negate the whole row so the artificial's
		// starting value is non-negative.
		resid := c.rhs
		for j := 0; j < artIdx; j++ {
			if t.a[i][j] != 0 && t.status[j] != statusBasic {
				resid -= t.a[i][j] * t.nonbas[j]
			}
		}
		if resid < 0 {
			for j := 0; j < artIdx; j++ {
				t.a[i][j] = -t.a[i][j]
			}
			resid, neg[i] = -resid, true
		}
		art := artIdx + i
		t.a[i][art] = 1
		t.lower[art], t.upper[art] = 0, math.Inf(1)
		t.basis[i] = art
		t.status[art] = statusBasic
		t.xB[i] = resid
	}

	// Phase 1: minimize the sum of artificials.
	cost := make([]float64, n)
	for i := 0; i < m; i++ {
		cost[artIdx+i] = 1
	}
	st, err := t.iterate(cost)
	if err != nil {
		return nil, nil, err
	}
	if st == Unbounded {
		return nil, nil, errPhase1
	}
	if t.objective(cost) > feasTol {
		return &Solution{Status: Infeasible}, nil, nil
	}
	// Pin artificials to zero so phase 2 cannot reuse them. Nothing in
	// phase 2 reads their columns, so it stops updating them unless keep:
	// then they stay B^-1 for Reoptimize.
	for i := 0; i < m; i++ {
		art := artIdx + i
		t.upper[art] = 0
		if t.status[art] != statusBasic {
			t.status[art] = statusAtLower
			t.nonbas[art] = 0
		}
	}
	if !keep {
		t.live = artIdx
	}

	sol, err := t.phase2(p, cost)
	if err != nil || sol.Status != Optimal || !keep {
		return sol, nil, err
	}
	// Reduced costs do not depend on the right-hand side, so the pricing
	// Reoptimize's phase 2 starts from after a right-hand-side change alone
	// is this one, made once here (the solution above is already taken).
	t.priceAll(cost)
	enter, _, err := t.entering(0)
	return sol, &Baseline{p: p, t: t, neg: neg, art: artIdx, priced: err == nil && enter < 0}, nil
}

// phase2 minimizes p's objective from the tableau's feasible basis.
func (t *tableau) phase2(p *Problem, cost []float64) (*Solution, error) {
	clear(cost)
	copy(cost, p.cost)
	st, err := t.iterate(cost)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	return t.extract(p), nil
}

var errPhase1 = errors.New("lp: phase 1 unbounded (internal error)")

// Baseline is an Optimal solve's final tableau with B^-1 kept current, from
// which Reoptimize solves modifications of the same problem. It is not safe
// for concurrent use.
type Baseline struct {
	p      *Problem
	t      *tableau  // never modified after the solve
	neg    []bool    // rows the setup negated
	art    int       // row i's artificial is column art+i
	priced bool      // a full pricing of t picks no entering column
	xB     []float64 // moveRHS's basic values, allocated on its first call
	work   *tableau  // reoptimize's scratch, allocated on its first call
	cost   []float64 // and its cost vector
	fix    []int     // and its sorted fixed columns
}

// Reoptimize solves the baseline's problem with the structural columns in
// fix fixed at 0, the rows in drop removed, and the right-hand sides rhs
// (one per row; nil keeps the problem's). It copies the baseline tableau
// into its scratch, never starting from an earlier call's, so the result
// depends only on the arguments. There it fixes the columns, frees the
// dropped rows' artificials, moves the basic values to the new right-hand
// sides through B^-1, restores feasibility with a bounded primal phase 1
// and re-optimizes with phase 2. The Solution's Pivots counts this call's
// pivots; its Basis may hold a dropped row's artificial.
//
// A change of right-hand sides alone whose basic values stay within their
// bounds is answered by moveRHS without the scratch: the full path would
// take no pivot from there, and moveRHS returns its bits.
func (b *Baseline) Reoptimize(fix, drop []int, rhs []float64) (*Solution, error) {
	if len(fix) == 0 && len(drop) == 0 && b.priced {
		if sol := b.moveRHS(rhs); sol != nil {
			return sol, nil
		}
	}
	return b.reoptimize(fix, drop, rhs)
}

// reoptimize is Reoptimize's full path, from a copy of the baseline tableau.
func (b *Baseline) reoptimize(fix, drop []int, rhs []float64) (*Solution, error) {
	p, t := b.p, b.scratch()
	// Ascending column order keeps the sums below independent of fix's.
	b.fix = append(b.fix[:0], fix...)
	slices.Sort(b.fix)
	for _, j := range b.fix {
		if t.status[j] != statusBasic {
			if v := t.nonbas[j]; v != 0 { // x_B -= B^-1 a_j * (0 - v)
				for i, row := range t.a {
					t.xB[i] += row[j] * v
				}
			}
			t.status[j], t.nonbas[j] = statusAtLower, 0
		}
		t.lower[j], t.upper[j] = 0, 0
	}
	for _, r := range drop {
		art := b.art + r
		t.lower[art], t.upper[art] = math.Inf(-1), math.Inf(1)
		if t.status[art] != statusBasic {
			t.status[art] = statusFree
		}
	}
	b.shiftRHS(t.xB, rhs)
	if feasible, err := t.restore(b.cost); err != nil || !feasible {
		return &Solution{Status: Infeasible}, err
	}
	sol, err := t.phase2(p, b.cost)
	if err == nil && sol.Status == Optimal { // the scratch is reused
		sol.Basis, sol.status = slices.Clone(sol.Basis), slices.Clone(sol.status)
	}
	return sol, err
}

// moveRHS is reoptimize for new right-hand sides alone, read off the
// baseline tableau. It moves the basic values as reoptimize does, and
// returns nil, for the full path, when one leaves its bounds by more than
// restore's feasTol. Otherwise restore would return at once and phase 2
// would price the baseline's columns, whose reduced costs no right-hand
// side moves, and pick no entering column (b.priced); so the solution is
// extract's of the baseline tableau at the new basic values, with no
// pivot: the full path's bits.
func (b *Baseline) moveRHS(rhs []float64) *Solution {
	t := *b.t
	if b.xB == nil {
		b.xB = make([]float64, t.m)
	}
	t.xB, t.pivots = b.xB, 0
	copy(t.xB, b.t.xB)
	b.shiftRHS(t.xB, rhs)
	for i, j := range t.basis {
		if x := t.xB[i]; x < t.lower[j]-feasTol || x > t.upper[j]+feasTol {
			return nil
		}
	}
	sol := t.extract(b.p)
	sol.Basis, sol.status = slices.Clone(t.basis), slices.Clone(t.status)
	return sol
}

// shiftRHS moves basic values xB from the problem's right-hand sides to
// rhs through B^-1 (the baseline's artificial columns), row by row in the
// setup's signs: x_B += B^-1 e_r * delta_r.
func (b *Baseline) shiftRHS(xB, rhs []float64) {
	for r, v := range rhs {
		if delta := v - b.p.cons[r].rhs; delta != 0 {
			if b.neg[r] {
				delta = -delta
			}
			for i, row := range b.t.a {
				xB[i] += row[b.art+r] * delta
			}
		}
	}
}

// scratch copies the baseline tableau into the work tableau, allocating it
// on the first call.
func (b *Baseline) scratch() *tableau {
	s, w := b.t, b.work
	if w == nil {
		w = newTableau(s.m, s.n)
		b.work, b.cost = w, make([]float64, s.n)
	}
	for i, row := range s.a {
		copy(w.a[i], row)
	}
	copy(w.xB, s.xB)
	copy(w.basis, s.basis)
	copy(w.status, s.status)
	copy(w.lower, s.lower)
	copy(w.upper, s.upper)
	copy(w.nonbas, s.nonbas)
	w.live, w.pivots = s.live, 0
	return w
}

// restore is Reoptimize's bounded primal phase 1. From a basis whose basic
// values may violate their bounds, it minimizes the sum of the violations:
// a basic below its lower bound costs -1, one above its upper bound +1, and
// every other column 0. Those costs change as basics become feasible, so
// every iteration re-prices in full; in the ratio test an infeasible basic
// may run up to the bound it violates. It reports whether every bound holds
// within feasTol when no column improves the sum.
func (t *tableau) restore(cost []float64) (bool, error) {
	for iter := 0; ; iter++ {
		clear(cost)
		feasible := true
		for i, b := range t.basis {
			switch x := t.xB[i]; {
			case x < t.lower[b]-feasTol:
				cost[b], feasible = -1, false
			case x > t.upper[b]+feasTol:
				cost[b], feasible = 1, false
			}
		}
		if feasible {
			return true, nil
		}
		t.priceAll(cost)
		enter, dir, err := t.entering(iter)
		if err != nil || enter < 0 {
			return false, err
		}
		limit, row, toUpper := t.ratio(enter, dir, true)
		if math.IsInf(limit, 1) {
			return false, errPhase1
		}
		t.step(enter, dir, limit, row, toUpper)
	}
}

// extract builds an Optimal solution from the tableau's current point.
func (t *tableau) extract(p *Problem) *Solution {
	nStruct := len(p.lower)
	x := make([]float64, nStruct)
	vals := t.values()
	copy(x, vals[:nStruct])
	obj := 0.0
	for j := 0; j < nStruct; j++ {
		obj += p.cost[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Pivots: t.pivots, Basis: t.basis, status: t.status}
}

// values returns the current value of every variable.
func (t *tableau) values() []float64 {
	v := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		if t.status[j] != statusBasic {
			v[j] = t.nonbas[j]
		}
	}
	for i, b := range t.basis {
		v[b] = t.xB[i]
	}
	return v
}

func (t *tableau) objective(cost []float64) float64 {
	var s float64
	for j, v := range t.values() {
		s += cost[j] * v
	}
	return s
}

// price sets d[j] = c_j - c_B' * (B^-1 A)_j for the column j of each entry
// of cols, walking the basis rows in order and skipping rows whose basic
// cost is 0, so d[j] does not depend on which other columns are priced.
func (t *tableau) price(cost []float64, cols []nonzero) {
	d := t.d
	for _, c := range cols {
		d[c.j] = cost[c.j]
	}
	for i, b := range t.basis {
		cb := cost[b]
		if cb == 0 {
			continue
		}
		row := t.a[i][:len(d)]
		for _, c := range cols {
			d[c.j] -= cb * row[c.j]
		}
	}
}

// priceAll prices every live column.
func (t *tableau) priceAll(cost []float64) {
	all := t.nz[:t.live]
	for j := range all {
		all[j] = nonzero{j: j}
	}
	t.price(cost, all)
}

// iterate runs simplex iterations for the given cost vector until optimality
// or unboundedness. The first pricing covers every live column; after that
// a pivot re-prices only the columns where its scaled row is nonzero, and a
// bound flip re-prices nothing (see the package comment).
func (t *tableau) iterate(cost []float64) (Status, error) {
	t.priceAll(cost)
	for iter := 0; ; iter++ {
		enter, dir, err := t.entering(iter)
		if err != nil {
			return 0, err
		}
		if enter < 0 {
			return Optimal, nil
		}
		limit, row, toUpper := t.ratio(enter, dir, false)
		if math.IsInf(limit, 1) {
			return Unbounded, nil
		}
		if t.step(enter, dir, limit, row, toUpper) {
			t.price(cost, t.nz)
		}
	}
}

// entering picks the column to enter at iteration iter of a phase, and the
// direction it moves in, from the reduced costs d: Dantzig's rule, or
// Bland's after blandAfter iterations, among the columns that can enter
// (nonbasic and not fixed, free ones included), in ascending order. enter is
// -1 when no column improves; past the iteration cap it fails.
func (t *tableau) entering(iter int) (enter int, dir float64, err error) {
	if maxIter := maxIterMult * (t.m + t.n); iter > maxIter {
		return -1, 0, fmt.Errorf("lp: iteration limit exceeded (%d iterations, %d rows, %d cols)", iter, t.m, t.n)
	}
	bland := iter > blandAfter
	enter = -1
	bestScore := costTol
	for j, dj := range t.d[:t.live] {
		if !(t.lower[j] < t.upper[j]) {
			continue
		}
		var improving bool
		var step float64
		switch t.status[j] {
		case statusBasic:
			continue
		case statusAtLower:
			improving = dj < -costTol
			step = 1
		case statusAtUpper:
			improving = dj > costTol
			step = -1
		default: // statusFree
			improving = math.Abs(dj) > costTol
			if dj > 0 {
				step = -1
			} else {
				step = 1
			}
		}
		if !improving {
			continue
		}
		if bland {
			return j, step, nil
		}
		if score := math.Abs(dj); score > bestScore {
			bestScore = score
			enter, dir = j, step
		}
	}
	return enter, dir, nil
}

// ratio is the ratio test for x_enter moving in direction dir. It returns
// how far x_enter can move, the row whose basic leaves (-1 when x_enter
// reaches its other bound first) and whether that basic leaves at its upper
// bound. In restore's bounded phase 1, an infeasible basic may run up to
// the bound it violates, and nothing limits it the other way.
func (t *tableau) ratio(enter int, dir float64, bounded bool) (limit float64, leaveRow int, toUpper bool) {
	limit, leaveRow = math.Inf(1), -1
	// Bound flip limit for the entering variable itself.
	if !math.IsInf(t.lower[enter], -1) && !math.IsInf(t.upper[enter], 1) {
		limit = t.upper[enter] - t.lower[enter]
	}
	for i := 0; i < t.m; i++ {
		alpha := t.a[i][enter]
		if math.Abs(alpha) <= pivotTol {
			continue
		}
		b := t.basis[i]
		x, lo, hi := t.xB[i], t.lower[b], t.upper[b]
		// x_B(i) changes at rate -dir*alpha per unit of movement.
		rate := -dir * alpha
		var ti float64
		var up bool
		switch {
		case bounded && x < lo-feasTol:
			if rate < 0 {
				continue
			}
			ti = (lo - x) / rate
		case bounded && x > hi+feasTol:
			if rate > 0 {
				continue
			}
			ti, up = (x-hi)/-rate, true
		case rate < 0: // decreasing toward its lower bound
			if math.IsInf(lo, -1) {
				continue
			}
			ti = (x - lo) / -rate
		default: // increasing toward its upper bound
			if math.IsInf(hi, 1) {
				continue
			}
			ti, up = (hi-x)/rate, true
		}
		if ti < 0 {
			ti = 0
		}
		if ti < limit {
			limit, leaveRow, toUpper = ti, i, up
		}
	}
	return limit, leaveRow, toUpper
}

// step moves x_enter by dir*limit. With leaveRow < 0 that is a bound flip;
// otherwise x_enter replaces row leaveRow's basic, which leaves at its upper
// bound when toUpper, else at its lower one. It reports whether it pivoted.
func (t *tableau) step(enter int, dir, limit float64, leaveRow int, toUpper bool) bool {
	for i := 0; i < t.m; i++ {
		t.xB[i] -= dir * t.a[i][enter] * limit
	}
	enterVal := t.nonbas[enter] + dir*limit
	if leaveRow < 0 {
		// Pure bound flip: the entering variable moved to its other bound.
		t.nonbas[enter] = enterVal
		if dir > 0 {
			t.status[enter] = statusAtUpper
		} else {
			t.status[enter] = statusAtLower
		}
		return false
	}
	leaving := t.basis[leaveRow]
	if toUpper {
		t.status[leaving], t.nonbas[leaving] = statusAtUpper, t.upper[leaving]
	} else {
		t.status[leaving], t.nonbas[leaving] = statusAtLower, t.lower[leaving]
	}
	t.pivot(leaveRow, enter)
	t.pivots++
	t.basis[leaveRow] = enter
	t.status[enter] = statusBasic
	t.xB[leaveRow] = enterVal
	return true
}

// pivot performs Gauss-Jordan elimination over the live columns so column
// `col` becomes the unit vector for row `row`. It collects the scaled pivot
// row's nonzeros (t.nz) and updates only those columns, in only the rows
// whose col entry is nonzero: the skipped ri[j] -= f*0 could at most change
// the sign of a zero ri[j].
func (t *tableau) pivot(row, col int) {
	pr := t.a[row][:t.live]
	inv := 1 / pr[col]
	nz := t.nz[:0]
	for j, v := range pr {
		v *= inv
		pr[j] = v
		if v != 0 {
			nz = append(nz, nonzero{j, v})
		}
	}
	t.nz = nz
	pr[col] = 1 // avoid round-off drift on the pivot element
	for i, ri := range t.a {
		f := ri[col]
		if i == row || f == 0 {
			continue
		}
		// Unrolled by four; each element gets its one update f*v. The
		// col entry's update is overwritten below.
		e := nz
		for len(e) >= 4 {
			ri[e[0].j] -= f * e[0].v
			ri[e[1].j] -= f * e[1].v
			ri[e[2].j] -= f * e[2].v
			ri[e[3].j] -= f * e[3].v
			e = e[4:]
		}
		for _, x := range e {
			ri[x.j] -= f * x.v
		}
		ri[col] = 0
	}
}
