package smt

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
)

// Op is a relational operator of an arithmetic atom.
type Op int

// Relational operators.
const (
	OpLT Op = iota + 1
	OpLE
	OpEQ
	OpGE
	OpGT
	OpNE
)

func (o Op) String() string {
	switch o {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	case OpNE:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// LinTerm is one monomial of a linear expression.
type LinTerm struct {
	Var   int // real-variable index
	Coeff *big.Rat
}

// LinExpr is a linear expression sum(Coeff_i * Var_i). The zero value is the
// empty expression (constant 0).
type LinExpr struct {
	terms []LinTerm
}

// NewLinExpr returns an empty linear expression.
func NewLinExpr() *LinExpr { return &LinExpr{} }

// AddTerm accumulates coeff*var into the expression and returns it for
// chaining.
func (e *LinExpr) AddTerm(coeff *big.Rat, v int) *LinExpr {
	e.terms = append(e.terms, LinTerm{Var: v, Coeff: new(big.Rat).Set(coeff)})
	return e
}

// RatFromFloat converts a finite float64 to a rational with a small
// denominator: the best continued-fraction approximation with denominator at
// most 10^7 (relative error below ~1e-14 for the magnitudes appearing in
// power-system data). Small denominators are essential for solver
// performance: exact SetFloat64 rationals carry 2^52-scale denominators
// whose products blow up during simplex pivoting and make every GCD
// expensive. The conversion is deterministic, so the same float64 always
// yields the same rational, preserving consistency of redundant
// constraints built from shared values.
func RatFromFloat(f float64) *big.Rat {
	if f != f || f > 1e15 || f < -1e15 {
		panic("smt: RatFromFloat requires a finite value")
	}
	neg := f < 0
	if neg {
		f = -f
	}
	const maxDen = int64(1e7)
	// Continued-fraction convergents h/k of f.
	var h0, k0, h1, k1 int64 = 0, 1, 1, 0
	x := f
	for i := 0; i < 64; i++ {
		a := int64(math.Floor(x))
		h2 := a*h1 + h0
		k2 := a*k1 + k0
		if k2 > maxDen || h2 < 0 || k2 < 0 {
			break
		}
		h0, k0, h1, k1 = h1, k1, h2, k2
		frac := x - math.Floor(x)
		if frac < 1e-15 {
			break
		}
		x = 1 / frac
	}
	r := big.NewRat(h1, k1)
	if got, _ := r.Float64(); math.Abs(got-f) > 1e-9*math.Max(1, math.Abs(f)) {
		// Approximation not close enough (pathological input): fall back to
		// the exact representation.
		r.SetFloat64(f)
	}
	if neg {
		r.Neg(r)
	}
	return r
}

// AddFloat accumulates coeff*var, converting the float64 coefficient to a
// small-denominator rational via RatFromFloat, and returns the expression
// for chaining.
func (e *LinExpr) AddFloat(coeff float64, v int) *LinExpr {
	return e.AddTerm(RatFromFloat(coeff), v)
}

// AddInt accumulates coeff*var with an integer coefficient.
func (e *LinExpr) AddInt(coeff int64, v int) *LinExpr {
	return e.AddTerm(new(big.Rat).SetInt64(coeff), v)
}

// normalize merges duplicate variables, drops zero coefficients, and sorts
// by variable index. It returns the canonical term slice.
func (e *LinExpr) normalize() []LinTerm {
	acc := make(map[int]*big.Rat, len(e.terms))
	for _, t := range e.terms {
		if c, ok := acc[t.Var]; ok {
			c.Add(c, t.Coeff)
		} else {
			acc[t.Var] = new(big.Rat).Set(t.Coeff)
		}
	}
	out := make([]LinTerm, 0, len(acc))
	for v, c := range acc {
		if c.Sign() != 0 {
			out = append(out, LinTerm{Var: v, Coeff: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

// Formula is a node of the propositional+arithmetic formula AST. Formulas
// are immutable once constructed.
type Formula struct {
	kind     formulaKind
	boolVar  int        // for fBoolVar
	children []*Formula // for fNot, fAnd, fOr
	atom     *atomData  // for fAtom
}

type formulaKind int

const (
	fTrue formulaKind = iota + 1
	fFalse
	fBoolVar
	fAtom
	fNot
	fAnd
	fOr
)

type atomData struct {
	terms []LinTerm // normalized
	op    Op
	rhs   *big.Rat
}

// True and False are the constant formulas.
var (
	True  = &Formula{kind: fTrue}
	False = &Formula{kind: fFalse}
)

// Bool returns the formula consisting of the single boolean variable v.
func Bool(v int) *Formula { return &Formula{kind: fBoolVar, boolVar: v} }

// Atom returns the arithmetic atom expr op rhs. A comparison with no
// variable left once expr's terms are merged folds to True or False. An
// equality or disequality is stored with a positive leading coefficient
// (terms and rhs negated otherwise), so x - y = c and y - x = -c intern the
// same two bounds in the same order.
func Atom(expr *LinExpr, op Op, rhs *big.Rat) *Formula {
	terms := expr.normalize()
	if len(terms) == 0 {
		if op.holds(new(big.Rat).Cmp(rhs)) {
			return True
		}
		return False
	}
	r := new(big.Rat).Set(rhs)
	if (op == OpEQ || op == OpNE) && terms[0].Coeff.Sign() < 0 {
		for _, t := range terms {
			t.Coeff.Neg(t.Coeff)
		}
		r.Neg(r)
	}
	return &Formula{kind: fAtom, atom: &atomData{terms: terms, op: op, rhs: r}}
}

// holds reports whether a comparison whose sides compare as c (-1, 0 or +1,
// as big.Rat.Cmp returns) satisfies o.
func (o Op) holds(c int) bool {
	switch o {
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
	default:
		panic(fmt.Sprintf("smt: unknown operator %d", int(o)))
	}
}

// AtomFloat is Atom with a float64 right-hand side (converted via
// RatFromFloat).
func AtomFloat(expr *LinExpr, op Op, rhs float64) *Formula {
	return Atom(expr, op, RatFromFloat(rhs))
}

// Not returns the negation of f, simplifying double negation and constants.
func Not(f *Formula) *Formula {
	switch f.kind {
	case fTrue:
		return False
	case fFalse:
		return True
	case fNot:
		return f.children[0]
	default:
		return &Formula{kind: fNot, children: []*Formula{f}}
	}
}

// And returns the conjunction of the given formulas, flattening nested
// conjunctions and simplifying constants.
func And(fs ...*Formula) *Formula {
	var kids []*Formula
	for _, f := range fs {
		switch f.kind {
		case fTrue:
			continue
		case fFalse:
			return False
		case fAnd:
			kids = append(kids, f.children...)
		default:
			kids = append(kids, f)
		}
	}
	switch len(kids) {
	case 0:
		return True
	case 1:
		return kids[0]
	default:
		return &Formula{kind: fAnd, children: kids}
	}
}

// Or returns the disjunction of the given formulas, flattening nested
// disjunctions and simplifying constants.
func Or(fs ...*Formula) *Formula {
	var kids []*Formula
	for _, f := range fs {
		switch f.kind {
		case fFalse:
			continue
		case fTrue:
			return True
		case fOr:
			kids = append(kids, f.children...)
		default:
			kids = append(kids, f)
		}
	}
	switch len(kids) {
	case 0:
		return False
	case 1:
		return kids[0]
	default:
		return &Formula{kind: fOr, children: kids}
	}
}

// Implies returns a -> b.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// Iff returns a <-> b.
func Iff(a, b *Formula) *Formula {
	return And(Implies(a, b), Implies(b, a))
}

// String renders the formula for debugging.
func (f *Formula) String() string {
	switch f.kind {
	case fTrue:
		return "true"
	case fFalse:
		return "false"
	case fBoolVar:
		return fmt.Sprintf("b%d", f.boolVar)
	case fAtom:
		var b strings.Builder
		for i, t := range f.atom.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%s*x%d", t.Coeff.RatString(), t.Var)
		}
		fmt.Fprintf(&b, " %s %s", f.atom.op, f.atom.rhs.RatString())
		return b.String()
	case fNot:
		return "!(" + f.children[0].String() + ")"
	case fAnd:
		return joinChildren(f.children, " & ")
	case fOr:
		return joinChildren(f.children, " | ")
	default:
		return fmt.Sprintf("Formula(kind=%d)", int(f.kind))
	}
}

func joinChildren(kids []*Formula, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
