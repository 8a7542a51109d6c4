package smt

import (
	"fmt"
	"math/big"
	"strings"
)

// literal encodes a SAT literal: variable v positive is v<<1, negated is
// v<<1|1.
type literal int32

func mkLit(v int, neg bool) literal {
	l := literal(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l literal) variable() int { return int(l >> 1) }
func (l literal) negated() bool { return l&1 == 1 }
func (l literal) not() literal  { return l ^ 1 }
func (l literal) String() string {
	if l.negated() {
		return fmt.Sprintf("-%d", l.variable())
	}
	return fmt.Sprintf("+%d", l.variable())
}

// atomInfo describes the theory meaning of a SAT variable that was interned
// from an arithmetic atom: a bound on a (slack) variable of the simplex.
// The positive literal asserts the stored bound; the negative literal asserts
// its complement.
type atomInfo struct {
	slack   int  // simplex variable carrying the linear form
	isUpper bool // true: form <= / < bound; false: form >= / > bound
	strict  bool
	bound   *big.Rat

	// Precomputed hybrid delta-rational bounds for the two polarities, so
	// drainTheory and theory propagation never allocate big.Rats per literal:
	// the positive literal asserts (isUpper, pVal); the negative literal
	// asserts (!isUpper, nVal). nVal always equals pVal + delta when isUpper
	// (and pVal - delta otherwise), which propagation relies on: an upper
	// bound <= pVal both implies the atom and strictly contradicts nVal.
	pVal drat64
	nVal drat64
}

// initDeltaBounds fills the cached hybrid bounds from the big.Rat bound.
func (a *atomInfo) initDeltaBounds() {
	var pd, nd int64
	if a.strict {
		if a.isUpper {
			pd = -1 // form < c  ==>  form <= c - delta
		} else {
			pd = 1 // form > c  ==>  form >= c + delta
		}
	} else {
		// not(form <= c) == form > c == form >= c + delta, and symmetrically.
		if a.isUpper {
			nd = 1
		} else {
			nd = -1
		}
	}
	b := r64FromBig(a.bound)
	a.pVal = drat64{a: b, b: r64FromInt(pd)}
	a.nVal = drat64{a: b, b: r64FromInt(nd)}
}

// posBound returns the delta-rational bound asserted by the positive literal.
func (a *atomInfo) posBound() (isUpper bool, val DRat) {
	d := new(big.Rat)
	if a.strict {
		if a.isUpper {
			d.SetInt64(-1) // form < c  ==>  form <= c - delta
		} else {
			d.SetInt64(1) // form > c  ==>  form >= c + delta
		}
	}
	return a.isUpper, DRat{A: new(big.Rat).Set(a.bound), B: d}
}

// negBound returns the delta-rational bound asserted by the negative literal.
func (a *atomInfo) negBound() (isUpper bool, val DRat) {
	d := new(big.Rat)
	if !a.strict {
		// not(form <= c) == form > c == form >= c + delta, and symmetrically.
		if a.isUpper {
			d.SetInt64(1)
		} else {
			d.SetInt64(-1)
		}
	}
	return !a.isUpper, DRat{A: new(big.Rat).Set(a.bound), B: d}
}

// canonicalAtom is the normalized representation of an arithmetic atom used
// for interning: a bound on a canonical linear form.
type canonicalAtom struct {
	terms   []LinTerm // canonical: sorted, merged, scaled so terms[0].Coeff == 1
	isUpper bool
	strict  bool
	bound   *big.Rat
}

// canonicalizeAtom rewrites terms `op` rhs into a bound on a sign- and
// scale-canonical linear form. It requires op to be OpLT, OpLE, OpGE, or
// OpGT (equalities are expanded before this point) and len(terms) > 0.
func canonicalizeAtom(terms []LinTerm, op Op, rhs *big.Rat) canonicalAtom {
	// Scale so |terms[0].Coeff| == 1 (positive scaling keeps direction).
	scale := new(big.Rat).Abs(terms[0].Coeff)
	inv := new(big.Rat).Inv(scale)
	scaled := make([]LinTerm, len(terms))
	for i, t := range terms {
		scaled[i] = LinTerm{Var: t.Var, Coeff: new(big.Rat).Mul(t.Coeff, inv)}
	}
	b := new(big.Rat).Mul(rhs, inv)

	isUpper := op == OpLT || op == OpLE
	strict := op == OpLT || op == OpGT

	// Sign-canonicalize: leading coefficient must be +1; negating the form
	// flips the bound direction.
	if scaled[0].Coeff.Sign() < 0 {
		for i := range scaled {
			scaled[i].Coeff = new(big.Rat).Neg(scaled[i].Coeff)
		}
		b = b.Neg(b)
		isUpper = !isUpper
	}
	return canonicalAtom{terms: scaled, isUpper: isUpper, strict: strict, bound: b}
}

// formKey returns a string key identifying the linear form (terms only).
func formKey(terms []LinTerm) string {
	var sb strings.Builder
	for _, t := range terms {
		fmt.Fprintf(&sb, "%d:%s;", t.Var, t.Coeff.RatString())
	}
	return sb.String()
}

// atomKey returns a string key identifying the full atom.
func (c canonicalAtom) atomKey() string {
	dir := "L"
	if c.isUpper {
		dir = "U"
	}
	s := ""
	if c.strict {
		s = "s"
	}
	return formKey(c.terms) + "|" + dir + s + "|" + c.bound.RatString()
}

// tseitin converts an asserted formula into CNF clauses, interning atoms and
// allocating auxiliary SAT variables as needed. Conjunction at the top level
// is flattened into separate clause groups to avoid useless auxiliaries.
func (s *Solver) assertCNF(f *Formula) {
	switch f.kind {
	case fTrue:
		return
	case fFalse:
		s.addClause(nil) // empty clause: unsatisfiable
	case fAnd:
		for _, k := range f.children {
			s.assertCNF(k)
		}
	case fOr:
		lits := make([]literal, 0, len(f.children))
		for _, k := range f.children {
			lits = append(lits, s.tseitinLit(k))
		}
		s.addClause(lits)
	default:
		s.addClause([]literal{s.tseitinLit(f)})
	}
}

// tseitinLit returns a literal equisatisfiably representing subformula f,
// adding defining clauses for compound nodes. Results are cached per node.
func (s *Solver) tseitinLit(f *Formula) literal {
	switch f.kind {
	case fTrue:
		return mkLit(s.trueVar, false)
	case fFalse:
		return mkLit(s.trueVar, true)
	case fBoolVar:
		return mkLit(f.boolVar, false)
	case fNot:
		return s.tseitinLit(f.children[0]).not()
	case fAtom:
		return s.atomLit(f.atom)
	}
	if l, ok := s.tseitinCache[f]; ok {
		return l
	}
	kidLits := make([]literal, len(f.children))
	for i, k := range f.children {
		kidLits[i] = s.tseitinLit(k)
	}
	aux := s.newSATVar()
	auxLit := mkLit(aux, false)
	switch f.kind {
	case fAnd:
		// aux -> k_i, and (k_1 & ... & k_n) -> aux.
		long := make([]literal, 0, len(kidLits)+1)
		for _, kl := range kidLits {
			s.addClause([]literal{auxLit.not(), kl})
			long = append(long, kl.not())
		}
		long = append(long, auxLit)
		s.addClause(long)
	case fOr:
		// k_i -> aux, and aux -> (k_1 | ... | k_n).
		long := make([]literal, 0, len(kidLits)+1)
		for _, kl := range kidLits {
			s.addClause([]literal{kl.not(), auxLit})
			long = append(long, kl)
		}
		long = append(long, auxLit.not())
		s.addClause(long)
	default:
		panic(fmt.Sprintf("smt: unexpected formula kind %d in tseitin", int(f.kind)))
	}
	s.tseitinCache[f] = auxLit
	return auxLit
}

// atomLit interns an arithmetic atom and returns its representing literal.
// Equalities expand to conjunctions/disjunctions of inequalities here.
func (s *Solver) atomLit(a *atomData) literal {
	if len(a.terms) == 0 {
		// Constant comparison: 0 op rhs.
		zero := new(big.Rat)
		holds := false
		switch a.op {
		case OpLT:
			holds = zero.Cmp(a.rhs) < 0
		case OpLE:
			holds = zero.Cmp(a.rhs) <= 0
		case OpEQ:
			holds = zero.Cmp(a.rhs) == 0
		case OpGE:
			holds = zero.Cmp(a.rhs) >= 0
		case OpGT:
			holds = zero.Cmp(a.rhs) > 0
		case OpNE:
			holds = zero.Cmp(a.rhs) != 0
		}
		return mkLit(s.trueVar, !holds)
	}
	switch a.op {
	case OpEQ:
		le := s.inequalityLit(a.terms, OpLE, a.rhs)
		ge := s.inequalityLit(a.terms, OpGE, a.rhs)
		aux := s.newSATVar()
		auxLit := mkLit(aux, false)
		s.addClause([]literal{auxLit.not(), le})
		s.addClause([]literal{auxLit.not(), ge})
		s.addClause([]literal{le.not(), ge.not(), auxLit})
		return auxLit
	case OpNE:
		lt := s.inequalityLit(a.terms, OpLT, a.rhs)
		gt := s.inequalityLit(a.terms, OpGT, a.rhs)
		aux := s.newSATVar()
		auxLit := mkLit(aux, false)
		s.addClause([]literal{auxLit.not(), lt, gt})
		s.addClause([]literal{lt.not(), auxLit})
		s.addClause([]literal{gt.not(), auxLit})
		return auxLit
	default:
		return s.inequalityLit(a.terms, a.op, a.rhs)
	}
}

// inequalityLit interns a single inequality atom, creating the simplex slack
// variable for its linear form if needed.
func (s *Solver) inequalityLit(terms []LinTerm, op Op, rhs *big.Rat) literal {
	ca := canonicalizeAtom(terms, op, rhs)
	key := ca.atomKey()
	if v, ok := s.atomVars[key]; ok {
		return mkLit(v, false)
	}
	fk := formKey(ca.terms)
	slack, ok := s.formSlacks[fk]
	if !ok {
		if len(ca.terms) == 1 {
			// Single unit-coefficient term: bound the variable directly.
			slack = ca.terms[0].Var
		} else {
			slack = s.simp.addSlack(ca.terms)
			// Record the defining form (over user variables only) so the
			// certificate checker can expand slack occurrences away.
			s.slackDefs[slack] = ca.terms
		}
		s.formSlacks[fk] = slack
	}
	v := s.newSATVar()
	info := &atomInfo{
		slack:   slack,
		isUpper: ca.isUpper,
		strict:  ca.strict,
		bound:   new(big.Rat).Set(ca.bound),
	}
	info.initDeltaBounds()
	for len(s.atoms) <= v {
		s.atoms = append(s.atoms, nil)
	}
	s.atoms[v] = info
	s.atomVars[key] = v
	// Index the atom under its simplex variable for theory propagation, with
	// the simplex variables in first-use order.
	for len(s.atomsBySlack) <= slack {
		s.atomsBySlack = append(s.atomsBySlack, nil)
	}
	if len(s.atomsBySlack[slack]) == 0 {
		s.atomSlacks = append(s.atomSlacks, slack)
	}
	s.atomsBySlack[slack] = append(s.atomsBySlack[slack], v)
	return mkLit(v, false)
}
