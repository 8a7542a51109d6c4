package lpcert

import (
	"context"
	"math/big"
)

// lfactor is an exact sparse LU factorization of a square matrix, recorded
// as its elimination steps. Step k pivots on row prow[k] and column pcol[k]:
// it subtracts mult[k][t].v times the pivot row from row mult[k][t].idx,
// and keeps the pivot row, pivot included, as urow[k].
type lfactor struct {
	prow, pcol []int
	piv        []*big.Rat
	urow       [][]cell
	mult       [][]cell
}

// factorize eliminates the square matrix given by its rows (cells indexed
// by column), which it consumes. Each step takes the pivot of least
// Markowitz count (r-1)(c-1), the fewest bits among those, then the lowest
// row and column: singletons go first, fill stays low, and the rationals
// stay small. A matrix with no nonzero left to pivot on is singular.
func factorize(ctx context.Context, rows [][]cell) (*lfactor, error) {
	m := len(rows)
	f := &lfactor{
		prow: make([]int, 0, m),
		pcol: make([]int, 0, m),
		piv:  make([]*big.Rat, 0, m),
		urow: make([][]cell, 0, m),
		mult: make([][]cell, 0, m),
	}
	colRows := make([][]int, m) // rows holding a nonzero of each column
	for i, row := range rows {
		for _, c := range row {
			colRows[c.idx] = append(colRows[c.idx], i)
		}
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	at := make([]int, m) // column -> index + 1 in the row being updated
	tmp := new(big.Rat)
	for step := 0; step < m; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pr, pk := -1, -1
		var bestCount, bestBits int
		for i, row := range rows {
			if !alive[i] {
				continue
			}
			for k, c := range row {
				count := (len(row) - 1) * (len(colRows[c.idx]) - 1)
				bits := c.v.Num().BitLen() + c.v.Denom().BitLen()
				if pr < 0 || count < bestCount || count == bestCount && bits < bestBits {
					pr, pk, bestCount, bestBits = i, k, count, bits
				}
			}
		}
		if pr < 0 {
			return nil, reject("singular basis: no pivot left after %d of %d elimination steps", step, m)
		}
		prow := rows[pr]
		pc := prow[pk].idx
		piv := prow[pk].v
		alive[pr] = false
		for _, c := range prow {
			colRows[c.idx] = removeRow(colRows[c.idx], pr)
		}

		var mult []cell
		for _, i := range colRows[pc] {
			row := rows[i]
			for k, c := range row {
				at[c.idx] = k + 1
			}
			fac := new(big.Rat).Quo(row[at[pc]-1].v, piv)
			mult = append(mult, cell{i, fac})
			for _, c := range prow {
				if c.idx == pc {
					continue
				}
				tmp.Mul(fac, c.v)
				if k := at[c.idx]; k != 0 {
					row[k-1].v.Sub(row[k-1].v, tmp)
				} else {
					row = append(row, cell{c.idx, new(big.Rat).Neg(tmp)})
					at[c.idx] = len(row)
					colRows[c.idx] = append(colRows[c.idx], i)
				}
			}
			// Drop the eliminated pivot-column entry and every exact
			// cancellation.
			kept := row[:0]
			for _, c := range row {
				at[c.idx] = 0
				if c.idx != pc && c.v.Sign() != 0 {
					kept = append(kept, c)
				} else if c.idx != pc {
					colRows[c.idx] = removeRow(colRows[c.idx], i)
				}
			}
			rows[i] = kept
		}
		colRows[pc] = nil

		f.prow = append(f.prow, pr)
		f.pcol = append(f.pcol, pc)
		f.piv = append(f.piv, piv)
		f.urow = append(f.urow, prow)
		f.mult = append(f.mult, mult)
	}
	return f, nil
}

// removeRow deletes row i from a column's row list, keeping the order.
func removeRow(list []int, i int) []int {
	for k, r := range list {
		if r == i {
			return append(list[:k], list[k+1:]...)
		}
	}
	return list
}

// solveSystem solves B x = b for the square matrix B given by its rows
// (cells indexed by column), which it consumes, and returns x = X/D with
// integer X and D > 0.
//
// D is |det(SB)|, where the diagonal S scales each row of [B | b] to
// integers, so D x = adj(SB) S b is integral by Cramer's rule. The back
// substitution therefore runs on the integers D x: each step multiplies
// thousand-bit integers by small factors and ends in one exact division,
// with none of the GCDs that rationals of that size would cost.
func solveSystem(ctx context.Context, rows [][]cell, b []*big.Rat) ([]*big.Int, *big.Int, error) {
	m := len(rows)
	var num, den []*big.Int // factors of D
	for i, row := range rows {
		s := new(big.Int).Set(b[i].Denom())
		for _, c := range row {
			lcm(s, c.v.Denom())
		}
		num = append(num, s)
	}
	f, err := factorize(ctx, rows)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range f.piv {
		num = append(num, new(big.Int).Abs(p.Num()))
		den = append(den, p.Denom())
	}
	d, rem := new(big.Int).QuoRem(product(num), product(den), new(big.Int))
	if rem.Sign() != 0 {
		return nil, nil, reject("det(SB) is not an integer (elimination error)")
	}

	// Forward: r = M b, the row operations of the elimination applied to b.
	r := make([]*big.Rat, m)
	for i, v := range b {
		r[i] = new(big.Rat).Set(v)
	}
	tmp := new(big.Rat)
	for k, pr := range f.prow {
		if r[pr].Sign() == 0 {
			continue
		}
		for _, c := range f.mult[k] {
			r[c.idx].Sub(r[c.idx], tmp.Mul(c.v, r[pr]))
		}
	}

	// Backward, on X = D x: step k's row reads piv*x_pc + sum u_c x_c = r_k.
	// With l the lcm of its denominators, l*piv*X_pc = l*(D r_k - sum u_c
	// X_c) is an integer equation and X_pc is integral, so the division is
	// exact.
	x := make([]*big.Int, m)
	for k := len(f.prow) - 1; k >= 0; k-- {
		pc, rk := f.pcol[k], r[f.prow[k]]
		l := new(big.Int).Set(rk.Denom())
		for _, c := range f.urow[k] {
			lcm(l, c.v.Denom())
		}
		acc := scaled(l, rk)
		acc.Mul(acc, d)
		for _, c := range f.urow[k] {
			if c.idx != pc {
				t := scaled(l, c.v)
				acc.Sub(acc, t.Mul(t, x[c.idx]))
			}
		}
		q, rem := new(big.Int).QuoRem(acc, scaled(l, f.piv[k]), new(big.Int))
		if rem.Sign() != 0 {
			return nil, nil, reject("D x is not integral (elimination error)")
		}
		x[pc] = q
	}
	return x, d, nil
}

var one = big.NewInt(1)

// lcm sets z to lcm(z, v) for positive z and v.
func lcm(z, v *big.Int) {
	if v.Cmp(one) == 0 || v.Cmp(z) == 0 {
		return
	}
	g := new(big.Int).GCD(nil, nil, z, v)
	z.Mul(z, new(big.Int).Quo(v, g))
}

// scaled returns the integer l*v for a multiple l of v's denominator.
func scaled(l *big.Int, v *big.Rat) *big.Int {
	t := new(big.Int).Quo(l, v.Denom())
	return t.Mul(t, v.Num())
}

// product returns the product of vs by a balanced tree, so the large
// multiplications are few.
func product(vs []*big.Int) *big.Int {
	switch len(vs) {
	case 0:
		return big.NewInt(1)
	case 1:
		return new(big.Int).Set(vs[0])
	}
	h := len(vs) / 2
	return new(big.Int).Mul(product(vs[:h]), product(vs[h:]))
}

// cmpScaled returns the sign of sum_c v_c X[c] - rhs*D, which is the sign
// of (sum_c v_c x_c) - rhs for x = X/D. Only the small factors l*v_c meet
// the large integers X and D.
func cmpScaled(cells []cell, x []*big.Int, rhs *big.Rat, d *big.Int) int {
	l := new(big.Int).Set(rhs.Denom())
	for _, c := range cells {
		lcm(l, c.v.Denom())
	}
	acc := scaled(l, rhs)
	acc.Mul(acc, d)
	acc.Neg(acc)
	for _, c := range cells {
		t := scaled(l, c.v)
		acc.Add(acc, t.Mul(t, x[c.idx]))
	}
	return acc.Sign()
}
