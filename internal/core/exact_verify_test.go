package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

// candidateStream walks the Fig. 2 candidate stream of a as Run does
// (FindVector, then Block), for up to a.MaxIterations
// candidates whether or not one of them reaches the target. It returns the
// attack-free optimum and the candidates.
func candidateStream(t *testing.T, a Analyzer) (float64, []*attack.Vector) {
	t.Helper()
	trueTopo := a.Grid.TrueTopology()
	base, err := opf.Solve(a.Grid, trueTopo, nil)
	if err != nil {
		t.Fatal(err)
	}
	dispatch := a.OperatingDispatch
	if dispatch == nil {
		dispatch = base.Dispatch
	}
	pf, err := a.Grid.SolvePowerFlow(trueTopo, dispatch)
	if err != nil {
		t.Fatal(err)
	}
	model, err := attack.NewModel(a.Grid, a.Plan, a.Capability, pf)
	if err != nil {
		t.Fatal(err)
	}
	model.MaxConflicts = a.MaxConflicts
	var out []*attack.Vector
	for len(out) < a.MaxIterations {
		v, err := model.FindVector()
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			break
		}
		out = append(out, v)
		model.Block(v, a.BlockPrecision)
	}
	return base.Cost, out
}

// requireExactMatchesSMT asks the SMT feasibility model and the exact model
// about candidate v at 10T and at T: the exact model must certify v, and
// both answers must be the SMT model's.
func requireExactMatchesSMT(t *testing.T, name string, a Analyzer, v *attack.Vector, threshold float64) {
	t.Helper()
	ctx := context.Background()
	em, err := opf.NewExactModel(ctx, a.Grid, v.MappedTopology, v.ObservedLoads)
	if err != nil {
		t.Fatalf("%s: not certified: %v", name, err)
	}
	fm, err := opf.NewFeasibilityModel(a.Grid, v.MappedTopology, v.ObservedLoads, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{10 * threshold, threshold} {
		want, err := fm.CheckCostBelow(ctx, c)
		if err != nil {
			t.Fatalf("%s: SMT model at %v: %v", name, c, err)
		}
		if got := em.CostBelow(c); got != want {
			t.Fatalf("%s: exact CostBelow(%v) = %t, SMT model says %t", name, c, got, want)
		}
	}
}

// TestExactVerifyMatchesSMT: on every candidate of the benchmark problems'
// Fig. 2 streams, the exact model certifies the OPF optimum and answers
// Eq. 38 (cost <= 10T) and Eq. 37 (cost <= T) as the SMT feasibility model
// does. The corpus is analyze-smt's problems (state infection), analyze-lp's
// problems up to synth30, and the ieee14 s0 ladder's rungs at their own
// thresholds; synth30 runs outside -short only.
func TestExactVerifyMatchesSMT(t *testing.T) {
	checked := 0
	stream := func(system string, s int, states bool) {
		if testing.Short() && system == "synth30" {
			return
		}
		a := searchAnalyzer(t, system, s, states, VerifySMT)
		base, vs := candidateStream(t, a)
		threshold := base * (1 + a.TargetIncreasePercent/100)
		for i, v := range vs {
			requireExactMatchesSMT(t, fmt.Sprintf("%s/s%d states=%t candidate %d", system, s, states, i+1), a, v, threshold)
			checked++
		}
	}
	for _, system := range []string{"paper5", "ieee14", "synth30"} {
		for s := 0; s < 3; s++ {
			stream(system, s, true)
			stream(system, s, false)
		}
	}
	a := searchAnalyzer(t, "ieee14", 0, false, VerifySMT)
	base, vs := candidateStream(t, a)
	for _, target := range []float64{0.5, 1.5, 3} {
		for i, v := range vs {
			requireExactMatchesSMT(t, fmt.Sprintf("ladder/ieee14/s0/t%g candidate %d", target, i+1), a, v, base*(1+target/100))
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("the corpus produced no candidate")
	}
	t.Logf("%d candidate checks agree", checked)
}

// TestExactVerifyFallsBackToSMT: a candidate whose float LP is infeasible
// (loads above the total generator capacity) is refused by the exact model,
// and verify decides it with the SMT model as not reached, counting one
// fallback. The ladder sends it to the same fallback once per open rung:
// neither of two rungs is found, the candidate counts one fallback, and the
// SMT effort is twice verify's.
func TestExactVerifyFallsBackToSMT(t *testing.T) {
	a := searchAnalyzer(t, "paper5", 0, false, VerifySMT)
	var capacity float64
	for _, gen := range a.Grid.Generators {
		capacity += gen.MaxP
	}
	loads := a.Grid.LoadVector()
	var total float64
	for _, l := range loads {
		total += l
	}
	for i := range loads {
		loads[i] *= 1.5 * capacity / total
	}
	v := &attack.Vector{MappedTopology: a.Grid.TrueTopology(), ObservedLoads: loads}
	ctx := context.Background()
	if _, err := opf.NewExactModel(ctx, a.Grid, v.MappedTopology, loads); !errors.Is(err, opf.ErrNotCertified) {
		t.Fatalf("exact model on an infeasible LP: %v, want ErrNotCertified", err)
	}
	acc := &statsAcc{}
	cost, reached, err := a.verify(v, nil, nil, 1e6, acc)
	if err != nil || reached || cost != 0 {
		t.Fatalf("verify = %v, %t, %v; want 0, false, nil", cost, reached, err)
	}
	var rep Report
	acc.fill(&rep, nil)
	if rep.ExactFallbacks != 1 {
		t.Fatalf("ExactFallbacks = %d, want 1", rep.ExactFallbacks)
	}
	if rep.SolverStats.Propagations == 0 && rep.SolverStats.Pivots == 0 {
		t.Fatal("the SMT feasibility model did not run")
	}

	acc = &statsAcc{}
	open := []*rung{{rep: &Report{Threshold: 1e6}}, {rep: &Report{Threshold: 2e6}}}
	if err := a.ladderVerify(VerifySMT, v, nil, nil, open, acc); err != nil {
		t.Fatal(err)
	}
	for i, r := range open {
		if r.rep.Found || r.rep.Canceled || r.resolved {
			t.Errorf("rung %d: found=%t canceled=%t resolved=%t, want an open rung", i, r.rep.Found, r.rep.Canceled, r.resolved)
		}
	}
	var ladder Report
	acc.fill(&ladder, nil)
	if ladder.ExactFallbacks != 1 {
		t.Fatalf("ladder ExactFallbacks = %d, want 1", ladder.ExactFallbacks)
	}
	got, one := ladder.SolverStats, rep.SolverStats
	if got.Propagations != 2*one.Propagations || got.Pivots != 2*one.Pivots || got.Conflicts != 2*one.Conflicts {
		t.Fatalf("ladder SMT effort %+v, want twice verify's %+v", got, one)
	}
}

// TestExactVerifyHonoursQueryTimeout: the exact check runs under one
// QueryTimeout deadline and an expired deadline cancels the candidate, in
// Run's verify and in every open rung of a ladder.
func TestExactVerifyHonoursQueryTimeout(t *testing.T) {
	a := searchAnalyzer(t, "ieee14", 0, false, VerifySMT)
	_, vs := candidateStream(t, a)
	if len(vs) == 0 {
		t.Fatal("no candidate")
	}
	a.QueryTimeout = time.Nanosecond
	acc := &statsAcc{}
	if _, _, err := a.verify(vs[0], nil, nil, 1e6, acc); !errors.Is(err, smt.ErrCanceled) {
		t.Fatalf("verify past its deadline: %v, want smt.ErrCanceled", err)
	}
	open := []*rung{{rep: &Report{Threshold: 1e6}}, {rep: &Report{Threshold: 2e6}}}
	if err := a.ladderVerify(VerifySMT, vs[0], nil, nil, open, acc); err != nil {
		t.Fatal(err)
	}
	for i, r := range open {
		if !r.rep.Canceled || !r.resolved || r.rep.Found {
			t.Errorf("rung %d: canceled=%t resolved=%t found=%t, want a canceled rung", i, r.rep.Canceled, r.resolved, r.rep.Found)
		}
	}
	var rep Report
	acc.fill(&rep, nil)
	if rep.ExactFallbacks != 0 {
		t.Errorf("a timed-out check counted %d fallbacks", rep.ExactFallbacks)
	}
}

// TestRunReportsNoFallbacks: the SMT-verified analyses of the benchmark's
// small problems certify every candidate.
func TestRunReportsNoFallbacks(t *testing.T) {
	iterations := 0
	for s := 0; s < 3; s++ {
		a := searchAnalyzer(t, "ieee14", s, true, VerifySMT)
		rep, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.ExactFallbacks != 0 {
			t.Errorf("ieee14/s%d: %d fallbacks", s, rep.ExactFallbacks)
		}
		iterations += rep.Iterations
	}
	if iterations == 0 {
		t.Fatal("no candidate was verified")
	}
}
