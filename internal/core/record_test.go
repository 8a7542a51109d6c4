package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"gridattack/internal/grid"
)

// proportionalDispatch shares the load among the generators in proportion
// to their capacity: an operating point off the OPF optimum, from which
// candidates raise the cost and some targets are found.
func proportionalDispatch(g *grid.Grid) []float64 {
	var capacity float64
	for _, gen := range g.Generators {
		capacity += gen.MaxP
	}
	out := make([]float64, g.NumBuses())
	for _, gen := range g.Generators {
		out[gen.Bus-1] += gen.MaxP * g.TotalLoad() / capacity
	}
	return out
}

// requireSameVerdictBits asserts that a replayed report carries the verdict
// of an independent Run bit for bit.
func requireSameVerdictBits(t *testing.T, what string, want, got *Report) {
	t.Helper()
	if got.Found != want.Found || got.Exhausted != want.Exhausted || got.Canceled != want.Canceled || got.Iterations != want.Iterations {
		t.Fatalf("%s: replay found=%t exhausted=%t canceled=%t after %d, Run found=%t exhausted=%t canceled=%t after %d", what,
			got.Found, got.Exhausted, got.Canceled, got.Iterations, want.Found, want.Exhausted, want.Canceled, want.Iterations)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"baseline cost", got.BaselineCost, want.BaselineCost},
		{"threshold", got.Threshold, want.Threshold},
		{"attacked cost", got.AttackedCost, want.AttackedCost},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: replay %s %v, Run %v", what, f.name, f.got, f.want)
		}
	}
	if !reflect.DeepEqual(got.Vector, want.Vector) {
		t.Fatalf("%s: replay vector %v, Run %v", what, got.Vector, want.Vector)
	}
}

// recordTargets is the target set a record is checked at: a sweep from
// 0.25% to 12% plus, for every recorded cost above the baseline, the
// percentage that puts the threshold on it and its neighbouring floats.
func recordTargets(recs ...*Record) []float64 {
	targets := []float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12}
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		for _, c := range rec.cands {
			if p := (c.cost/rec.baseline - 1) * 100; c.converged && p > 0 {
				targets = append(targets, math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1)))
			}
		}
	}
	sort.Float64s(targets)
	return targets
}

// replayScenarios are the problems the replay is checked on: paper5, ieee14
// and synth30 without and with state infection, from the default operating
// point (every candidate below the baseline, so records end exhausted or
// capped) and from a proportional dispatch (candidates above it, so some
// targets are found); plus Case Study 1. synth30 with states, whose runs
// take about a second each, is checked from the proportional dispatch at a
// cap of 2, and not in short mode.
func replayScenarios(t *testing.T) map[string]Analyzer {
	out := map[string]Analyzer{"cs1": cs1Analyzer(1)}
	for _, system := range []string{"paper5", "ieee14", "synth30"} {
		for _, states := range []bool{false, true} {
			if states && system == "synth30" && testing.Short() {
				continue
			}
			a := searchAnalyzer(t, system, 0, states, VerifyLP)
			if system == "synth30" && states {
				a.MaxIterations = 2
			} else {
				out[fmt.Sprintf("%s/states=%t/optimum", system, states)] = a
			}
			a.OperatingDispatch = proportionalDispatch(a.Grid)
			out[fmt.Sprintf("%s/states=%t/proportional", system, states)] = a
		}
	}
	return out
}

// TestRecordReplayMatchesRun: a record built by a Run at an unreachable
// target, and the record of a ladder over the target sweep, each answer
// every target with the verdict an independent Run at that target
// computes, bit for bit, under LP, shift and SMT verification.
func TestRecordReplayMatchesRun(t *testing.T) {
	found := 0
	for name, base := range replayScenarios(t) {
		costed := map[VerifyMode]*Record{}
		for _, mode := range []VerifyMode{VerifyLP, VerifyShift, VerifySMT} {
			a := base
			a.Verify = mode
			a.TargetIncreasePercent = 1e4
			full, err := a.Run()
			if mode == VerifyShift && errors.Is(err, ErrConfig) {
				continue // a candidate that shift factors cannot verify
			}
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			if full.ExactFallbacks != 0 {
				t.Fatalf("%s %v: %d exact fallbacks; the record would not cover the sweep", name, mode, full.ExactFallbacks)
			}
			if mode != VerifySMT {
				costed[mode] = full.Record
			}
			targets := recordTargets(costed[VerifyLP], costed[VerifyShift])
			ladder, err := a.RunLadder(targets)
			if err != nil {
				t.Fatalf("%s %v ladder: %v", name, mode, err)
			}
			for i, target := range targets {
				b := a
				b.TargetIncreasePercent = target
				want := runAt(t, b)
				what := fmt.Sprintf("%s %v target %v", name, mode, target)
				for src, rec := range map[string]*Record{"run": full.Record, "ladder": ladder[i].Record} {
					got, ok := rec.Replay(target, a.MaxIterations)
					if !ok {
						t.Fatalf("%s: the %s record (end %v, %d candidates) does not cover it", what, src, rec.end, len(rec.cands))
					}
					requireSameVerdictBits(t, what+" from the "+src+" record", want, got)
				}
				requireSameVerdictBits(t, what+" ladder rung", want, ladder[i])
				if want.Found {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no target was found; the replay of a found candidate went unchecked")
	}
	t.Logf("%d targets found", found)
}

// TestRecordReplayUncovered: a record says so for the targets it does not
// decide, and answers those it does like Run.
func TestRecordReplayUncovered(t *testing.T) {
	// A record stopped at a found candidate does not decide a higher target.
	a := cs1Analyzer(3)
	rep := runAt(t, a)
	if !rep.Found || rep.Record.end != endResolved {
		t.Fatalf("Case Study 1 at 3%%: found=%t, record end %v; want a record resolved at its attack", rep.Found, rep.Record.end)
	}
	if _, ok := rep.Record.Replay(50, 0); ok {
		t.Error("a record resolved at 3% covers 50%")
	}
	got, ok := rep.Record.Replay(1, 0)
	if !ok {
		t.Fatal("a record resolved at 3% does not cover 1%")
	}
	requireSameVerdictBits(t, "Case Study 1 at 1% from the 3% record", runAt(t, cs1Analyzer(1)), got)

	// A record capped at six candidates decides no larger cap, and a
	// smaller one like Run.
	a = searchAnalyzer(t, "ieee14", 0, true, VerifyLP)
	a.OperatingDispatch = proportionalDispatch(a.Grid)
	a.TargetIncreasePercent = 1e4
	full := runAt(t, a)
	if full.Record.end != endCapped || len(full.Record.cands) != a.MaxIterations {
		t.Fatalf("ieee14 with states: record end %v with %d candidates, want capped at %d", full.Record.end, len(full.Record.cands), a.MaxIterations)
	}
	if _, ok := full.Record.Replay(5, a.MaxIterations+1); ok {
		t.Error("a record capped at 6 covers a cap of 7")
	}
	for _, maxIter := range []int{2, 4} {
		b := a
		b.MaxIterations = maxIter
		b.TargetIncreasePercent = 0.45
		got, ok := full.Record.Replay(b.TargetIncreasePercent, maxIter)
		if !ok {
			t.Fatalf("a record capped at 6 does not cover a cap of %d", maxIter)
		}
		requireSameVerdictBits(t, fmt.Sprintf("cap %d", maxIter), runAt(t, b), got)
	}

	// A candidate without an outcome (the SMT fallback's) ends what the
	// record answers: targets found before it stay covered.
	cut := *full.Record
	cut.cands = append([]candidate(nil), full.Record.cands...)
	cut.cands[2] = candidate{vector: cut.cands[2].vector, noOutcome: true}
	first := (cut.cands[0].cost/cut.baseline - 1) * 100
	if _, ok := cut.Replay(first, a.MaxIterations); !ok {
		t.Error("a record cut at its third candidate does not cover its first candidate's cost")
	}
	if _, ok := cut.Replay(5, a.MaxIterations); ok {
		t.Error("a record cut at its third candidate covers a target no candidate reaches")
	}
	if got := cut.Extent(); got != 2 {
		t.Errorf("cut record's extent %d, want 2", got)
	}

	// A canceled search decides nothing past its candidates.
	c := searchAnalyzer(t, "ieee14", 0, false, VerifySMT)
	c.QueryTimeout = 1
	canceled := runAt(t, c)
	if !canceled.Canceled || canceled.Record.end != endCanceled {
		t.Fatalf("a 1 ns query timeout: canceled=%t, record end %v", canceled.Canceled, canceled.Record.end)
	}
	if _, ok := canceled.Record.Replay(5, c.MaxIterations); ok {
		t.Error("a canceled record covers a target")
	}
}
