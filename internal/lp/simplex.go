package lp

import (
	"fmt"
	"math"
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

// Solve runs two-phase simplex from scratch and returns the solution.
func (p *Problem) Solve() (*Solution, error) {
	for i, c := range p.cons {
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= len(p.lower) {
				return nil, fmt.Errorf("lp: constraint %d references unknown variable %d", i, t.Var)
			}
		}
	}
	for j := range p.lower {
		if p.lower[j] > p.upper[j] {
			return &Solution{Status: Infeasible}, nil
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
	copy(t.lower, p.lower)
	copy(t.upper, p.upper)

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
			resid = -resid
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
		return nil, err
	}
	if st == Unbounded {
		return nil, fmt.Errorf("lp: phase 1 unbounded (internal error)")
	}
	if t.objective(cost) > feasTol {
		return &Solution{Status: Infeasible}, nil
	}
	// Pin artificials to zero so phase 2 cannot reuse them. Nothing reads
	// their columns from here on, so phase 2 stops updating them.
	for i := 0; i < m; i++ {
		art := artIdx + i
		t.upper[art] = 0
		if t.status[art] != statusBasic {
			t.status[art] = statusAtLower
			t.nonbas[art] = 0
		}
	}
	t.live = artIdx

	// Phase 2: minimize the real objective.
	clear(cost)
	copy(cost, p.cost)
	st, err = t.iterate(cost)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	return t.extract(p), nil
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

// iterate runs simplex iterations for the given cost vector until optimality
// or unboundedness. The first pricing covers every live column; after that
// a pivot re-prices only the columns where its scaled row is nonzero, and a
// bound flip re-prices nothing (see the package comment).
func (t *tableau) iterate(cost []float64) (Status, error) {
	all := t.nz[:t.live]
	for j := range all {
		all[j] = nonzero{j: j}
	}
	t.price(cost, all)
	maxIter := maxIterMult * (t.m + t.n)
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return 0, fmt.Errorf("lp: iteration limit exceeded (%d iterations, %d rows, %d cols)", iter, t.m, t.n)
		}
		bland := iter > blandAfter

		// Entering variable selection among the columns that can enter
		// (nonbasic and not fixed, free ones included), in ascending order.
		enter, dir := -1, 0.0
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
				enter, dir = j, step
				break
			}
			if score := math.Abs(dj); score > bestScore {
				bestScore = score
				enter, dir = j, step
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		// Ratio test: how far can x_enter move in direction dir?
		limit := math.Inf(1)
		leaveRow := -1
		leaveToUpper := false
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
			// x_B(i) changes at rate -dir*alpha per unit of movement.
			rate := -dir * alpha
			var ti float64
			var toUpper bool
			if rate < 0 { // decreasing toward its lower bound
				if math.IsInf(t.lower[b], -1) {
					continue
				}
				ti = (t.xB[i] - t.lower[b]) / -rate
				toUpper = false
			} else { // increasing toward its upper bound
				if math.IsInf(t.upper[b], 1) {
					continue
				}
				ti = (t.upper[b] - t.xB[i]) / rate
				toUpper = true
			}
			if ti < 0 {
				ti = 0
			}
			if ti < limit {
				limit = ti
				leaveRow = i
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded, nil
		}

		// Apply the move to the basic values.
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
			continue
		}

		// Basis change: pivot on (leaveRow, enter).
		leaving := t.basis[leaveRow]
		if leaveToUpper {
			t.status[leaving] = statusAtUpper
			t.nonbas[leaving] = t.upper[leaving]
			t.xB[leaveRow] = t.upper[leaving]
		} else {
			t.status[leaving] = statusAtLower
			t.nonbas[leaving] = t.lower[leaving]
			t.xB[leaveRow] = t.lower[leaving]
		}
		t.pivot(leaveRow, enter)
		t.pivots++
		t.basis[leaveRow] = enter
		t.status[enter] = statusBasic
		t.xB[leaveRow] = enterVal
		t.price(cost, t.nz)
	}
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
