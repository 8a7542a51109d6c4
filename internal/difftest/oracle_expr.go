package difftest

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"

	"gridattack/internal/attack"
	"gridattack/internal/core"
	"gridattack/internal/expr"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

// The expr oracle checks the hash-consed expression layer two ways:
//
//   - checkExpr: a random expression is generated as a plain tree, then built
//     through an expr.Builder (which shares, folds, and simplifies) and
//     evaluated both ways — the builder's memoized DAG evaluator against a
//     naive structural tree walk in pure big.Rat — under random rational
//     assignments. Any simplification that changes a truth value under any
//     assignment is a discrepancy. Rebuilding the same tree must also return
//     the identical node pointer (hash-consing determinism).
//
//   - checkLadderAB: the Fig. 2 threshold ladder (one shared candidate
//     search) is run over a generated system, uncertified and certified,
//     against a loop of independent per-target Runs, and the per-rung
//     verdicts must match bit for bit.

// tNum is a naive numeric expression tree node (no sharing, no folding).
type tNum struct {
	kind byte // 'r' real var, 'q' constant, 's' sum, 'm' scale
	idx  int
	q    *big.Rat
	kids []*tNum
}

// tBool is a naive boolean expression tree node.
type tBool struct {
	kind byte // 'k' const, 'b' bool var, 'c' compare, '!', '&', '|', '>' implies, '=' iff
	val  bool
	idx  int
	op   smt.Op
	l, r *tNum
	kids []*tBool
}

func evalTNum(n *tNum, xs []*big.Rat) *big.Rat {
	switch n.kind {
	case 'r':
		return new(big.Rat).Set(xs[n.idx])
	case 'q':
		return new(big.Rat).Set(n.q)
	case 'm':
		return new(big.Rat).Mul(n.q, evalTNum(n.kids[0], xs))
	default: // 's'
		acc := new(big.Rat)
		for _, k := range n.kids {
			acc.Add(acc, evalTNum(k, xs))
		}
		return acc
	}
}

func evalTBool(n *tBool, bs []bool, xs []*big.Rat) bool {
	switch n.kind {
	case 'k':
		return n.val
	case 'b':
		return bs[n.idx]
	case 'c':
		cmp := evalTNum(n.l, xs).Cmp(evalTNum(n.r, xs))
		switch n.op {
		case smt.OpLT:
			return cmp < 0
		case smt.OpLE:
			return cmp <= 0
		case smt.OpEQ:
			return cmp == 0
		case smt.OpGE:
			return cmp >= 0
		case smt.OpGT:
			return cmp > 0
		default:
			return cmp != 0
		}
	case '!':
		return !evalTBool(n.kids[0], bs, xs)
	case '&':
		for _, k := range n.kids {
			if !evalTBool(k, bs, xs) {
				return false
			}
		}
		return true
	case '|':
		for _, k := range n.kids {
			if evalTBool(k, bs, xs) {
				return true
			}
		}
		return false
	case '>':
		return !evalTBool(n.kids[0], bs, xs) || evalTBool(n.kids[1], bs, xs)
	default: // '='
		return evalTBool(n.kids[0], bs, xs) == evalTBool(n.kids[1], bs, xs)
	}
}

const exprVars = 4 // bool and real variables per generated case

func genTNum(rng *rand.Rand, depth int) *tNum {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return &tNum{kind: 'r', idx: rng.Intn(exprVars)}
		}
		return &tNum{kind: 'q', q: big.NewRat(int64(rng.Intn(9)-4), int64(1+rng.Intn(3)))}
	}
	if rng.Intn(3) == 0 {
		return &tNum{kind: 'm', q: big.NewRat(int64(rng.Intn(7)-3), int64(1+rng.Intn(2))), kids: []*tNum{genTNum(rng, depth-1)}}
	}
	n := &tNum{kind: 's'}
	for i := 0; i < 2+rng.Intn(2); i++ {
		n.kids = append(n.kids, genTNum(rng, depth-1))
	}
	return n
}

func genTBool(rng *rand.Rand, depth int) *tBool {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return &tBool{kind: 'k', val: rng.Intn(2) == 0}
		case 1:
			return &tBool{kind: 'b', idx: rng.Intn(exprVars)}
		default:
			ops := []smt.Op{smt.OpLT, smt.OpLE, smt.OpEQ, smt.OpGE, smt.OpGT, smt.OpNE}
			return &tBool{kind: 'c', op: ops[rng.Intn(len(ops))], l: genTNum(rng, 2), r: genTNum(rng, 2)}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return &tBool{kind: '!', kids: []*tBool{genTBool(rng, depth-1)}}
	case 1:
		return &tBool{kind: '>', kids: []*tBool{genTBool(rng, depth-1), genTBool(rng, depth-1)}}
	case 2:
		return &tBool{kind: '=', kids: []*tBool{genTBool(rng, depth-1), genTBool(rng, depth-1)}}
	default:
		kind := byte('&')
		if rng.Intn(2) == 0 {
			kind = '|'
		}
		n := &tBool{kind: kind}
		for i := 0; i < 2+rng.Intn(2); i++ {
			n.kids = append(n.kids, genTBool(rng, depth-1))
		}
		return n
	}
}

func buildNum(b *expr.Builder, n *tNum) *expr.Node {
	switch n.kind {
	case 'r':
		return b.RealVar(n.idx)
	case 'q':
		return b.Rat(n.q)
	case 'm':
		return b.ScaleRat(n.q, buildNum(b, n.kids[0]))
	default:
		kids := make([]*expr.Node, len(n.kids))
		for i, k := range n.kids {
			kids[i] = buildNum(b, k)
		}
		return b.Sum(kids...)
	}
}

func buildBool(b *expr.Builder, n *tBool) *expr.Node {
	switch n.kind {
	case 'k':
		return b.BoolConst(n.val)
	case 'b':
		return b.BoolVar(n.idx)
	case 'c':
		return b.Cmp(buildNum(b, n.l), n.op, buildNum(b, n.r))
	case '!':
		return b.Not(buildBool(b, n.kids[0]))
	case '&', '|':
		kids := make([]*expr.Node, len(n.kids))
		for i, k := range n.kids {
			kids[i] = buildBool(b, k)
		}
		if n.kind == '&' {
			return b.And(kids...)
		}
		return b.Or(kids...)
	case '>':
		return b.Implies(buildBool(b, n.kids[0]), buildBool(b, n.kids[1]))
	default:
		return b.Iff(buildBool(b, n.kids[0]), buildBool(b, n.kids[1]))
	}
}

// checkExpr runs one expression-layer differential case.
func checkExpr(rng *rand.Rand) string {
	tree := genTBool(rng, 4)
	b := expr.NewBuilder()
	node := buildBool(b, tree)
	if again := buildBool(b, tree); again != node {
		return "hash-consing is not deterministic: rebuilding the same tree returned a different node"
	}
	for trial := 0; trial < 8; trial++ {
		bs := make([]bool, exprVars)
		xs := make([]*big.Rat, exprVars)
		asn := expr.Assignment{Bools: map[int]bool{}, Reals: map[int]*big.Rat{}}
		for v := 0; v < exprVars; v++ {
			bs[v] = rng.Intn(2) == 0
			xs[v] = big.NewRat(int64(rng.Intn(11)-5), int64(1+rng.Intn(4)))
			asn.Bools[v] = bs[v]
			asn.Reals[v] = xs[v]
		}
		got := b.EvalBool(node, asn)
		want := evalTBool(tree, bs, xs)
		if got != want {
			return fmt.Sprintf("DAG evaluation %v differs from naive tree evaluation %v (trial %d, simplified to %s)",
				got, want, trial, node)
		}
	}
	return ""
}

// ladderVerdict is the part of a core.Report that must be bit-identical
// between a ladder rung and the independent Run at its target.
type ladderVerdict struct {
	Found        bool
	Exhausted    bool
	Canceled     bool
	Iterations   int
	AttackedCost float64
	Vector       string // canonical JSON; "" when nil
}

func verdictOf(rep *core.Report) ladderVerdict {
	v := ladderVerdict{
		Found:        rep.Found,
		Exhausted:    rep.Exhausted,
		Canceled:     rep.Canceled,
		Iterations:   rep.Iterations,
		AttackedCost: rep.AttackedCost,
	}
	if rep.Vector != nil {
		j, _ := json.Marshal(rep.Vector)
		v.Vector = string(j)
	}
	return v
}

// checkLadderAB compares the Fig. 2 ladder, uncertified and certified, with
// independent per-target Runs on one generated system. The certified ladder
// draws nothing from rng.
func checkLadderAB(sys *System, rng *rand.Rand) string {
	if _, err := opf.Solve(sys.Grid, sys.Grid.TrueTopology(), nil); err != nil {
		return "" // no attack-free optimum: the ladder has no baseline
	}
	base := float64(1+rng.Intn(3)) / 2 // 0.5, 1, or 1.5 %
	targets := []float64{base, base * 2, base * 4}
	mode := core.VerifyLP
	if rng.Intn(2) == 0 {
		mode = core.VerifySMT
	}
	analyzer := func(target float64, certify bool) *core.Analyzer {
		return &core.Analyzer{
			Grid:                  sys.Grid,
			Plan:                  sys.Plan,
			Capability:            attack.Capability{RequireTopologyChange: true},
			TargetIncreasePercent: target,
			MaxIterations:         12,
			Parallelism:           1,
			Verify:                mode,
			Certify:               certify,
		}
	}
	runs := make([]*core.Report, len(targets))
	var runErr error
	for i, t := range targets {
		if runs[i], runErr = analyzer(t, false).Run(); runErr != nil {
			break
		}
	}
	for _, certify := range []bool{false, true} {
		ladder, err := analyzer(targets[0], certify).RunLadder(targets)
		if (err != nil) != (runErr != nil) {
			return fmt.Sprintf("ladder error asymmetry (%s, certify=%t): ladder=%v runs=%v", mode, certify, err, runErr)
		}
		if err != nil {
			continue // both reject the system the same way
		}
		for i := range targets {
			if gl, gr := verdictOf(ladder[i]), verdictOf(runs[i]); gl != gr {
				return fmt.Sprintf("ladder verdict mismatch (%s, certify=%t) at rung %v%%: ladder=%+v run=%+v", mode, certify, targets[i], gl, gr)
			}
		}
	}
	return ""
}
