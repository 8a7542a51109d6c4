package smt

import (
	"fmt"
	"math/big"
	"os"
	"sync/atomic"
)

// certifyDefault makes NewSolver enable certification + self-verification on
// every new solver. Initialized from the GRIDATTACK_CERTIFY environment
// variable; tests and benchmarks flip it via SetCertifyDefault.
var certifyDefault atomic.Bool

func init() {
	if os.Getenv("GRIDATTACK_CERTIFY") != "" {
		certifyDefault.Store(true)
	}
}

// SetCertifyDefault toggles certification-by-default (with per-Check
// self-verification) for solvers created afterwards and returns the previous
// setting. It is how the always-on certification test lane and the
// certification-overhead benchmark switch modes without threading a flag
// through every construction site.
func SetCertifyDefault(on bool) bool {
	return certifyDefault.Swap(on)
}

// CertifyDefault reports whether certification-by-default is currently on.
// Certification does not change which search runs; it adds a proof log and
// its check to every Check.
func CertifyDefault() bool { return certifyDefault.Load() }

// assertKind discriminates the three user-level assertion forms.
type assertKind int

const (
	assertFormula assertKind = iota + 1
	assertAtMostK
	assertAtLeastOne
)

// assertRecord is one user-level assertion kept in pre-encoding form, so the
// sat-model checker evaluates the original constraint and never has to trust
// the Tseitin/sequential-counter encodings.
type assertRecord struct {
	kind assertKind
	f    *Formula // assertFormula
	vars []int    // assertAtMostK / assertAtLeastOne
	k    int      // assertAtMostK
}

// proofStep is one derived clause of an unsat trace. Ordinary steps are
// learned clauses checkable by reverse unit propagation (RUP) against the
// premises and earlier steps. Theory steps are lemmas imported from the
// simplex: tlits are the jointly infeasible bound literals and farkas their
// non-negative multipliers; lits is the lemma clause (the negations of
// tlits), admitted only after the Farkas combination is re-verified.
type proofStep struct {
	lits   []literal
	theory bool
	tlits  []literal
	farkas []*big.Rat
}

// Certificate is a checkable artifact backing one Check verdict.
//
// For Sat it carries the full model; Verify replays every assertion in its
// original (pre-encoding) form with exact rational arithmetic. For Unsat it
// carries the clausal proof trace; Verify validates each theory lemma as a
// non-negative linear combination of bounds summing to a contradiction (no
// simplex involved) and each learned clause by reverse unit propagation,
// and finally requires the empty clause. The checker shares no search code
// with the solver: a bug in the CDCL loop, the watch lists, or the simplex
// cannot also hide in the verification path.
type Certificate struct {
	res     Result
	spoiled bool

	asserts   []assertRecord
	premises  [][]literal
	steps     []proofStep
	atoms     []*atomInfo
	slackDefs map[int][]LinTerm
	nVars     int

	boolModel []assignVal
	realModel []*big.Rat
}

// Result returns the verdict this certificate backs.
func (c *Certificate) Result() Result { return c.res }

// Steps returns the number of trace steps (0 for Sat certificates).
func (c *Certificate) Steps() int { return len(c.steps) }

// Verify checks the certificate and returns nil only when the verdict is
// independently reproducible from the certificate's contents.
func (c *Certificate) Verify() error {
	if c.spoiled {
		return fmt.Errorf("smt: certificate is spoiled: a Check ran before certification was enabled")
	}
	switch c.res {
	case Sat:
		return c.verifyModel()
	case Unsat:
		return c.verifyProof()
	default:
		return fmt.Errorf("smt: certificate carries no verdict")
	}
}

// verifyModel evaluates every recorded assertion under the model.
func (c *Certificate) verifyModel() error {
	for i, a := range c.asserts {
		switch a.kind {
		case assertFormula:
			ok, err := c.evalFormula(a.f)
			if err != nil {
				return fmt.Errorf("smt: assertion %d: %w", i, err)
			}
			if !ok {
				return fmt.Errorf("smt: model violates assertion %d: %s", i, a.f)
			}
		case assertAtMostK:
			if n := c.countTrue(a.vars); n > a.k {
				return fmt.Errorf("smt: model violates assertion %d: %d of %d variables true, at most %d allowed",
					i, n, len(a.vars), a.k)
			}
		case assertAtLeastOne:
			if c.countTrue(a.vars) == 0 {
				return fmt.Errorf("smt: model violates assertion %d: none of %d variables true", i, len(a.vars))
			}
		}
	}
	return nil
}

func (c *Certificate) countTrue(vars []int) int {
	n := 0
	for _, v := range vars {
		if v >= 0 && v < len(c.boolModel) && c.boolModel[v] == assignTrue {
			n++
		}
	}
	return n
}

func (c *Certificate) evalFormula(f *Formula) (bool, error) {
	switch f.kind {
	case fTrue:
		return true, nil
	case fFalse:
		return false, nil
	case fBoolVar:
		if f.boolVar < 0 || f.boolVar >= len(c.boolModel) {
			return false, fmt.Errorf("boolean variable %d outside model", f.boolVar)
		}
		return c.boolModel[f.boolVar] == assignTrue, nil
	case fNot:
		v, err := c.evalFormula(f.children[0])
		return !v, err
	case fAnd:
		for _, k := range f.children {
			v, err := c.evalFormula(k)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case fOr:
		for _, k := range f.children {
			v, err := c.evalFormula(k)
			if err != nil || v {
				return v, err
			}
		}
		return false, nil
	case fAtom:
		return c.evalAtom(f.atom)
	default:
		return false, fmt.Errorf("unknown formula kind %d", int(f.kind))
	}
}

func (c *Certificate) evalAtom(a *atomData) (bool, error) {
	sum := new(big.Rat)
	prod := new(big.Rat)
	for _, t := range a.terms {
		if t.Var < 0 || t.Var >= len(c.realModel) || c.realModel[t.Var] == nil {
			return false, fmt.Errorf("real variable %d outside model", t.Var)
		}
		sum.Add(sum, prod.Mul(t.Coeff, c.realModel[t.Var]))
	}
	cmp := sum.Cmp(a.rhs)
	switch a.op {
	case OpLT:
		return cmp < 0, nil
	case OpLE:
		return cmp <= 0, nil
	case OpEQ:
		return cmp == 0, nil
	case OpGE:
		return cmp >= 0, nil
	case OpGT:
		return cmp > 0, nil
	case OpNE:
		return cmp != 0, nil
	default:
		return false, fmt.Errorf("unknown operator %d", int(a.op))
	}
}

// verifyProof replays the unsat trace: premises in, then every step either
// Farkas-verified (theory lemmas) or RUP-verified (learned clauses), ending
// in a propagation conflict with no assumptions — the empty clause.
func (c *Certificate) verifyProof() error {
	if len(c.steps) == 0 {
		return fmt.Errorf("smt: unsat certificate has an empty trace")
	}
	eng := newBCPEngine(c.nVars)
	for i, cl := range c.premises {
		if err := eng.add(cl); err != nil {
			return fmt.Errorf("smt: premise %d: %w", i, err)
		}
	}
	for i, st := range c.steps {
		if st.theory {
			if err := c.checkFarkas(st); err != nil {
				return fmt.Errorf("smt: theory lemma at step %d: %w", i, err)
			}
		} else {
			ok, err := eng.rup(st.lits)
			if err != nil {
				return fmt.Errorf("smt: step %d: %w", i, err)
			}
			if !ok {
				return fmt.Errorf("smt: step %d (%d literals) does not follow by unit propagation", i, len(st.lits))
			}
		}
		if err := eng.add(st.lits); err != nil {
			return fmt.Errorf("smt: step %d: %w", i, err)
		}
	}
	if !eng.conflict {
		return fmt.Errorf("smt: trace does not derive the empty clause")
	}
	return nil
}

// checkFarkas validates a theory lemma: each literal asserts a bound on a
// (slack) variable; with slack definitions expanded to user variables, the
// non-negative combination of those bounds must cancel every variable and
// leave a strictly negative constant — an explicit 0 >= positive
// contradiction, checkable without any simplex.
func (c *Certificate) checkFarkas(st proofStep) error {
	if len(st.farkas) != len(st.tlits) {
		return fmt.Errorf("%d multipliers for %d literals", len(st.farkas), len(st.tlits))
	}
	coeffs := make(map[int]*big.Rat)
	constA, constB := new(big.Rat), new(big.Rat) // constant part as A + B*delta
	for i, l := range st.tlits {
		v := l.variable()
		if v < 0 || v >= len(c.atoms) || c.atoms[v] == nil {
			return fmt.Errorf("literal %v is not a theory atom", l)
		}
		info := c.atoms[v]
		lam := st.farkas[i]
		if lam == nil || lam.Sign() < 0 {
			return fmt.Errorf("multiplier %d is missing or negative", i)
		}
		var isUpper bool
		var val DRat
		if l.negated() {
			isUpper, val = info.negBound()
		} else {
			isUpper, val = info.posBound()
		}
		scale := new(big.Rat).Set(lam)
		if isUpper {
			// form <= val  rewritten as  val - form >= 0.
			scale.Neg(scale)
			constA.Add(constA, new(big.Rat).Mul(lam, val.A))
			constB.Add(constB, new(big.Rat).Mul(lam, val.B))
		} else {
			// form >= val  rewritten as  form - val >= 0.
			constA.Sub(constA, new(big.Rat).Mul(lam, val.A))
			constB.Sub(constB, new(big.Rat).Mul(lam, val.B))
		}
		c.addExpanded(coeffs, info.slack, scale)
	}
	for v, cf := range coeffs {
		if cf.Sign() != 0 {
			return fmt.Errorf("combination leaves variable x%d with coefficient %s", v, cf.RatString())
		}
	}
	// The combination sums quantities that are each >= 0, so its constant
	// must be >= 0 under any assignment; a strictly negative constant is the
	// contradiction. Delta-rationals compare lexicographically.
	if constA.Sign() > 0 || (constA.Sign() == 0 && constB.Sign() >= 0) {
		return fmt.Errorf("combination constant %s + %s*delta is not negative", constA.RatString(), constB.RatString())
	}
	return nil
}

// addExpanded accumulates scale*v into coeffs, expanding slack variables to
// their defining form over user variables.
func (c *Certificate) addExpanded(coeffs map[int]*big.Rat, v int, scale *big.Rat) {
	if def, ok := c.slackDefs[v]; ok {
		for _, t := range def {
			addCoeff(coeffs, t.Var, new(big.Rat).Mul(scale, t.Coeff))
		}
		return
	}
	addCoeff(coeffs, v, scale)
}

// bcpEngine is the checker's own two-watched-literal unit propagator. It is
// deliberately written from scratch (sharing no code with satCore) so the
// proof check stays independent of the solver it checks. Assignments are
// either permanent (clause additions at the top level) or temporary
// (assumptions during a RUP check, undone afterwards).
type bcpEngine struct {
	nVars    int
	assign   []assignVal
	trail    []literal
	qhead    int
	watchers [][]int // literal -> indices of clauses watching its negation
	clauses  [][]literal
	conflict bool // a conflict holds at the permanent level: empty clause derived
}

func newBCPEngine(nVars int) *bcpEngine {
	return &bcpEngine{
		nVars:    nVars,
		assign:   make([]assignVal, nVars),
		watchers: make([][]int, 2*nVars),
	}
}

func (e *bcpEngine) value(l literal) assignVal {
	v := e.assign[l.variable()]
	if v == unassigned || !l.negated() {
		return v
	}
	return -v
}

// enqueue sets l true, returning false when l is already false.
func (e *bcpEngine) enqueue(l literal) bool {
	switch e.value(l) {
	case assignTrue:
		return true
	case assignFals:
		return false
	}
	if l.negated() {
		e.assign[l.variable()] = assignFals
	} else {
		e.assign[l.variable()] = assignTrue
	}
	e.trail = append(e.trail, l)
	return true
}

func (e *bcpEngine) checkRange(lits []literal) error {
	for _, l := range lits {
		if v := l.variable(); v < 0 || v >= e.nVars {
			return fmt.Errorf("literal %v outside the certificate's %d variables", l, e.nVars)
		}
	}
	return nil
}

// add installs a clause permanently. It must be called with no assumptions
// active. Tautologies are dropped; units propagate immediately.
func (e *bcpEngine) add(lits []literal) error {
	if err := e.checkRange(lits); err != nil {
		return err
	}
	if e.conflict {
		return nil
	}
	seen := make(map[literal]bool, len(lits))
	cl := make([]literal, 0, len(lits))
	for _, l := range lits {
		if seen[l.not()] {
			return nil // tautology: always satisfied
		}
		if !seen[l] {
			seen[l] = true
			cl = append(cl, l)
		}
	}
	// Move up to two non-false literals to the watch positions.
	w := 0
	for i, l := range cl {
		if e.value(l) != assignFals {
			cl[w], cl[i] = cl[i], cl[w]
			w++
			if w == 2 {
				break
			}
		}
	}
	switch {
	case w == 0: // covers the empty clause too
		e.conflict = true
	case w == 1:
		if !e.enqueue(cl[0]) || !e.propagate() {
			e.conflict = true
		}
	default:
		idx := len(e.clauses)
		e.clauses = append(e.clauses, cl)
		e.watchers[cl[0].not()] = append(e.watchers[cl[0].not()], idx)
		e.watchers[cl[1].not()] = append(e.watchers[cl[1].not()], idx)
	}
	return nil
}

// propagate runs unit propagation to fixpoint, returning false on conflict.
func (e *bcpEngine) propagate() bool {
	for e.qhead < len(e.trail) {
		p := e.trail[e.qhead] // p just became true; clauses watching not(p) react
		e.qhead++
		ws := e.watchers[p]
		e.watchers[p] = nil
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			cl := e.clauses[ci]
			if cl[0] == p.not() {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if e.value(cl[0]) == assignTrue {
				e.watchers[p] = append(e.watchers[p], ci)
				continue
			}
			moved := false
			for k := 2; k < len(cl); k++ {
				if e.value(cl[k]) != assignFals {
					cl[1], cl[k] = cl[k], cl[1]
					e.watchers[cl[1].not()] = append(e.watchers[cl[1].not()], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			e.watchers[p] = append(e.watchers[p], ci)
			if !e.enqueue(cl[0]) {
				e.watchers[p] = append(e.watchers[p], ws[wi+1:]...)
				return false
			}
		}
	}
	return true
}

// rup reports whether the clause follows by reverse unit propagation:
// assuming every literal false must produce a conflict. The engine state is
// restored before returning.
func (e *bcpEngine) rup(lits []literal) (bool, error) {
	if err := e.checkRange(lits); err != nil {
		return false, err
	}
	if e.conflict {
		return true, nil
	}
	mark := len(e.trail)
	confl := false
	for _, l := range lits {
		if !e.enqueue(l.not()) {
			confl = true // the clause contains a literal already implied true
			break
		}
	}
	if !confl {
		confl = !e.propagate()
	}
	for i := len(e.trail) - 1; i >= mark; i-- {
		e.assign[e.trail[i].variable()] = unassigned
	}
	e.trail = e.trail[:mark]
	e.qhead = mark
	return confl, nil
}
