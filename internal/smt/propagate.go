package smt

import "math/big"

// Theory-level bound propagation (Dutertre & de Moura, CAV 2006, Sec. 4):
// after each successful simplex check the solver knows, for every variable,
// an asserted bound interval and — for basic variables — an implied interval
// derived from the tableau row and the bounds of its columns. Any unassigned
// atom whose bound is entailed by one of those intervals can be pushed into
// the SAT core as a propagated literal instead of waiting for the boolean
// search to branch on it. Each propagation carries a theory explanation
// clause (implied literal + negated premises) that serves as the enqueue
// reason for conflict analysis and, in certification mode, is logged as a
// Farkas-annotated theory lemma exactly like a simplex conflict.

// rowBounds caches the bounds implied by one basic variable's tableau row:
// row value = sum(c_j * x_j), so an upper bound follows when every positive
// column has an upper bound and every negative column a lower bound (and
// symmetrically for the lower side).
type rowBounds struct {
	upOK, loOK bool
	up, lo     drat64
	upLits     []literal
	loLits     []literal
	upFarkas   []*big.Rat // |c_j| per premise; nil unless certifying
	loFarkas   []*big.Rat
}

// deriveRowBounds computes both implied bounds of basic variable b's row.
func (s *Solver) deriveRowBounds(b int) *rowBounds {
	sp := s.simp
	row := &sp.rows[b]
	rb := &rowBounds{upOK: true, loOK: true, up: d64FromInt(0), lo: d64FromInt(0)}
	certify := s.Certify
	for i, jc := range row.cols {
		j := int(jc)
		c := row.vals[i]
		var upSide, loSide *hbound // which bound of x_j feeds which side
		if c.Sign() > 0 {
			upSide, loSide = &sp.ub[j], &sp.lb[j]
		} else {
			upSide, loSide = &sp.lb[j], &sp.ub[j]
		}
		if rb.upOK {
			if upSide.active {
				rb.up = sp.daddScaled(rb.up, c, upSide.val)
				rb.upLits = append(rb.upLits, upSide.reason)
				if certify {
					rb.upFarkas = append(rb.upFarkas, sp.abs(c).toBig())
				}
			} else {
				rb.upOK = false
			}
		}
		if rb.loOK {
			if loSide.active {
				rb.lo = sp.daddScaled(rb.lo, c, loSide.val)
				rb.loLits = append(rb.loLits, loSide.reason)
				if certify {
					rb.loFarkas = append(rb.loFarkas, sp.abs(c).toBig())
				}
			} else {
				rb.loOK = false
			}
		}
		if !rb.upOK && !rb.loOK {
			break
		}
	}
	return rb
}

// theoryPropagate derives implied atom literals at a theory-consistent
// fixpoint and enqueues them in the SAT core. It reports whether anything was
// propagated (the caller then re-runs BCP before spending a decision). Rounds
// are skipped entirely while the simplex bound/tableau revision is unchanged,
// so boolean-only decision levels cost nothing here.
func (s *Solver) theoryPropagate() bool {
	if s.NoPropagate || len(s.atomSlacks) == 0 {
		return false
	}
	sp := s.simp
	if sp.boundRev == s.lastPropRev {
		return false
	}
	s.lastPropRev = sp.boundRev
	any := false
	for _, slack := range s.atomSlacks {
		ub, lb := &sp.ub[slack], &sp.lb[slack]
		var rb *rowBounds // derived lazily, only when an atom is unassigned
		for _, av := range s.atomsBySlack[slack] {
			if s.core.assign[av] != unassigned {
				continue
			}
			if rb == nil && sp.basic[slack] {
				rb = s.deriveRowBounds(slack)
			}
			info := s.atoms[av]
			if s.tryImply(mkLit(av, false), info.isUpper, info.pVal, ub, lb, rb) ||
				s.tryImply(mkLit(av, true), !info.isUpper, info.nVal, ub, lb, rb) {
				any = true
			}
		}
	}
	return any
}

// tryImply checks whether literal l — which asserts bound (wantUpper, val) on
// its atom's slack variable — is entailed by the asserted bounds (ub/lb) or
// the row-derived bounds (rb, nil for nonbasic slacks), and propagates it if
// so. Asserted bounds win ties: their explanation is a single premise.
func (s *Solver) tryImply(l literal, wantUpper bool, val drat64, ub, lb *hbound, rb *rowBounds) bool {
	sp := s.simp
	if wantUpper {
		// Need a known upper bound <= val.
		if ub.active && sp.dcmp(ub.val, val) <= 0 {
			return s.propagateLit(l, []literal{ub.reason}, s.unitFarkas())
		}
		if rb != nil && rb.upOK && sp.dcmp(rb.up, val) <= 0 {
			return s.propagateLit(l, rb.upLits, rb.upFarkas)
		}
		return false
	}
	// Need a known lower bound >= val.
	if lb.active && sp.dcmp(lb.val, val) >= 0 {
		return s.propagateLit(l, []literal{lb.reason}, s.unitFarkas())
	}
	if rb != nil && rb.loOK && sp.dcmp(rb.lo, val) >= 0 {
		return s.propagateLit(l, rb.loLits, rb.loFarkas)
	}
	return false
}

func (s *Solver) unitFarkas() []*big.Rat {
	if !s.Certify {
		return nil
	}
	return []*big.Rat{big.NewRat(1, 1)}
}

// propagateLit enqueues implied literal l with a theory explanation clause
// l | !p_1 | ... | !p_n built from the premise bound literals. The clause is
// added to the clause database (it is a valid theory lemma, reusable after
// backtracking) and, when certifying, logged as a Farkas step: the premises
// plus the negation of l are jointly infeasible, with multiplier 1 on !l and
// the premise multipliers as derived — the same shape as a simplex conflict,
// so the certificate checker needs no new machinery.
func (s *Solver) propagateLit(l literal, premises []literal, farkas []*big.Rat) bool {
	// After a successful check the assignment satisfies all asserted bounds,
	// so an entailed literal cannot be assigned false; guard anyway so an
	// inconsistent state degrades to "no propagation" rather than corruption.
	if v := l.variable(); s.core.assign[v] != unassigned {
		return false
	}
	c := s.core
	cr := c.alloc(len(premises)+1, true)
	lits := c.lits(cr)
	lits[0] = l
	for i, p := range premises {
		lits[i+1] = p.not()
	}
	if s.Certify {
		tlits := make([]literal, 0, len(premises)+1)
		tlits = append(tlits, l.not())
		tlits = append(tlits, premises...)
		fk := make([]*big.Rat, 0, len(farkas)+1)
		fk = append(fk, big.NewRat(1, 1))
		fk = append(fk, farkas...)
		// Log before the clause can appear in any later derivation.
		s.steps = append(s.steps, proofStep{
			lits:   append([]literal(nil), lits...),
			theory: true,
			tlits:  tlits,
			farkas: fk,
		})
	}
	c.attach(cr)
	c.enqueue(l, cr)
	s.theoryProps++
	return true
}
