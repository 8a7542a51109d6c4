package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/opf"
)

// cs1Analyzer builds the Case Study 1 analyzer used by the resume tests.
func cs1Analyzer(target float64) Analyzer {
	return Analyzer{
		Grid: cases.Paper5Bus(),
		Plan: cases.Paper5PlanCase1(),
		Capability: attack.Capability{
			MaxMeasurements:       8,
			MaxBuses:              3,
			RequireTopologyChange: true,
		},
		TargetIncreasePercent: target,
		OperatingDispatch:     cases.Paper5OperatingDispatch(),
	}
}

// runAt runs a copy of the analyzer.
func runAt(t *testing.T, a Analyzer) *Report {
	t.Helper()
	rep, err := a.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// requireSameVerdict asserts that two reports agree on everything except the
// timing fields.
func requireSameVerdict(t *testing.T, want, got *Report) {
	t.Helper()
	if got.Found != want.Found || got.Exhausted != want.Exhausted || got.Canceled != want.Canceled {
		t.Fatalf("verdict diverged: found=%v exhausted=%v canceled=%v, want found=%v exhausted=%v canceled=%v",
			got.Found, got.Exhausted, got.Canceled, want.Found, want.Exhausted, want.Canceled)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("examined %d vectors, want %d", got.Iterations, want.Iterations)
	}
	if got.BaselineCost != want.BaselineCost || got.Threshold != want.Threshold {
		t.Errorf("baseline/threshold diverged: %v/%v, want %v/%v",
			got.BaselineCost, got.Threshold, want.BaselineCost, want.Threshold)
	}
	if got.AttackedCost != want.AttackedCost {
		t.Errorf("attacked cost %v, want %v", got.AttackedCost, want.AttackedCost)
	}
	if !reflect.DeepEqual(got.Vector, want.Vector) {
		t.Errorf("found a different vector:\n  got:  %+v\n  want: %+v", got.Vector, want.Vector)
	}
}

// truncateJournal copies the first 1+keepIters lines (header + iterations) of
// src to a fresh path, cutting on line boundaries so the hash chain prefix
// stays valid, and returns the new path.
func truncateJournal(t *testing.T, src string, keepIters int) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	// SplitAfter keeps separators, so re-add the final line's newline.
	keep := 1 + keepIters
	if keep > len(lines) {
		t.Fatalf("journal has %d lines, cannot keep %d", len(lines), keep)
	}
	out := bytes.Join(lines[:keep], nil)
	if out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	dst := filepath.Join(t.TempDir(), fmt.Sprintf("trunc%d.journal", keepIters))
	if err := os.WriteFile(dst, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestCheckpointResumeFound runs Case Study 1 to its sat verdict, then
// resumes from the journal truncated at several intermediate iterations; the
// resumed reports must match the uninterrupted reference exactly.
func TestCheckpointResumeFound(t *testing.T) {
	a := cs1Analyzer(3)
	ref := runAt(t, a)
	if !ref.Found {
		t.Fatal("reference run must find the CS1 attack")
	}

	cp := filepath.Join(t.TempDir(), "cs1.journal")
	b := a
	b.CheckpointPath = cp
	full := runAt(t, b)
	requireSameVerdict(t, ref, full)
	if full.ResumedIterations != 0 {
		t.Fatalf("fresh checkpointed run resumed %d iterations, want 0", full.ResumedIterations)
	}

	// The journal is finalized: a re-run must reconstruct the verdict from it
	// without solving anything.
	fast := runAt(t, b)
	requireSameVerdict(t, ref, fast)
	if fast.ResumedIterations != fast.Iterations {
		t.Fatalf("finalized re-run: ResumedIterations=%d, Iterations=%d, want equal", fast.ResumedIterations, fast.Iterations)
	}
	if fast.AttackSearchTime != 0 || fast.VerifyTime != 0 {
		t.Fatalf("finalized re-run solved: search=%v verify=%v, want zero", fast.AttackSearchTime, fast.VerifyTime)
	}

	// Resume from truncation points: header only, first iteration done, and
	// all iterations done but the final verdict lost.
	points := map[int]bool{0: true, 1: true, ref.Iterations - 1: true, ref.Iterations: true}
	for keep := range points {
		if keep < 0 || keep > ref.Iterations {
			continue
		}
		c := a
		c.CheckpointPath = truncateJournal(t, cp, keep)
		rep := runAt(t, c)
		requireSameVerdict(t, ref, rep)
		if rep.ResumedIterations != keep {
			t.Errorf("resume after %d journaled iterations: ResumedIterations=%d", keep, rep.ResumedIterations)
		}
	}
}

// TestCheckpointResumeExhausted covers the unsat verdict: the journal's final
// record marks exhaustion, and a mid-run truncation resumes into the
// remaining enumeration.
func TestCheckpointResumeExhausted(t *testing.T) {
	a := cs1Analyzer(50) // unreachable target
	ref := runAt(t, a)
	if !ref.Exhausted {
		t.Fatal("reference run must exhaust the attack space")
	}

	cp := filepath.Join(t.TempDir(), "cs1x.journal")
	b := a
	b.CheckpointPath = cp
	requireSameVerdict(t, ref, runAt(t, b))

	keep := ref.Iterations / 2
	c := a
	c.CheckpointPath = truncateJournal(t, cp, keep)
	rep := runAt(t, c)
	requireSameVerdict(t, ref, rep)
	if rep.ResumedIterations != keep {
		t.Errorf("resumed %d iterations, want %d", rep.ResumedIterations, keep)
	}

	// Finalized fast path for the exhausted verdict.
	fast := runAt(t, b)
	requireSameVerdict(t, ref, fast)
	if fast.ResumedIterations != ref.Iterations {
		t.Errorf("finalized re-run resumed %d iterations, want %d", fast.ResumedIterations, ref.Iterations)
	}
}

// TestCheckpointConfigMismatch: resuming a journal written under a different
// analysis configuration must be refused, not silently replayed.
func TestCheckpointConfigMismatch(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cs1.journal")
	a := cs1Analyzer(3)
	a.CheckpointPath = cp
	runAt(t, a)

	b := cs1Analyzer(4) // different target => different threshold
	b.CheckpointPath = cp
	if _, err := b.Run(); !errors.Is(err, ErrJournal) {
		t.Fatalf("Run with mismatched config: err=%v, want ErrJournal", err)
	}
}

// TestCheckpointCandidateMismatch rewrites one journaled iteration
// (re-chaining the hashes so the file itself verifies) and requires the
// replay to detect it: a changed candidate differs from the regenerated one,
// a cost one ulp off from the LP re-verification of the candidate.
func TestCheckpointCandidateMismatch(t *testing.T) {
	mutations := map[string]func(*JournalRecord) bool{
		"candidate": func(r *JournalRecord) bool {
			if r.Vector == nil || len(r.Vector.ObservedLoads) == 0 {
				return false
			}
			r.Vector.ObservedLoads[0] += 0.25
			return true
		},
		"cost": func(r *JournalRecord) bool {
			r.Cost = math.Nextafter(r.Cost, math.Inf(1))
			return true
		},
	}
	for name, mutate := range mutations {
		cp := filepath.Join(t.TempDir(), "cs1.journal")
		a := cs1Analyzer(3)
		a.CheckpointPath = cp
		runAt(t, a)

		j, cfg, recs, err := OpenJournal(cp)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		// Rewrite the journal through the append path, so the tampering is
		// invisible to the integrity check and only the replay can catch it.
		// The final record is dropped so the run replays instead of
		// fast-pathing.
		if j, err = CreateJournal(cp, *cfg); err != nil {
			t.Fatal(err)
		}
		mutated := false
		for _, r := range recs {
			if r.Kind != RecIter {
				continue
			}
			if !mutated {
				mutated = mutate(&r)
			}
			if err := j.AppendIter(r.Iter, r.Vector, r.Cost, r.Reached); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		if !mutated {
			t.Fatalf("%s: no iteration record to mutate", name)
		}

		if _, err := a.Run(); !errors.Is(err, ErrJournal) {
			t.Fatalf("%s: Run with rewritten record: err=%v, want ErrJournal", name, err)
		}
	}
}

// cs2Analyzer builds Case Study 2 (state infection) at a 5% target: seven
// journaled iterations before the attack is found.
func cs2Analyzer() Analyzer {
	return Analyzer{
		Grid: cases.Paper5Bus(),
		Plan: cases.Paper5PlanCase2(),
		Capability: attack.Capability{
			MaxMeasurements:       12,
			MaxBuses:              3,
			States:                true,
			RequireTopologyChange: true,
		},
		TargetIncreasePercent: 5,
		OperatingDispatch:     cases.Paper5OperatingDispatch(),
	}
}

// crashCuts lists, for every journal line, the byte offsets a crash can
// leave it at: its start, one byte in, and one byte short of its newline.
func crashCuts(data []byte) []int {
	var cuts []int
	for start := 0; start < len(data); {
		end := start + bytes.IndexByte(data[start:], '\n') + 1
		cuts = append(cuts, start, start+1, end-1)
		start = end
	}
	return cuts
}

// requireResumedVerdict compares a resumed run against the uninterrupted
// one, down to the bits of the attacked cost.
func requireResumedVerdict(t *testing.T, what string, ref, got *Report) {
	t.Helper()
	if got.Found != ref.Found || got.Exhausted != ref.Exhausted || got.Iterations != ref.Iterations ||
		math.Float64bits(got.AttackedCost) != math.Float64bits(ref.AttackedCost) || !reflect.DeepEqual(got.Vector, ref.Vector) {
		t.Fatalf("%s: resumed found=%v exhausted=%v iterations=%d cost=%v, want %v/%v/%d/%v (or the vector differs)",
			what, got.Found, got.Exhausted, got.Iterations, got.AttackedCost, ref.Found, ref.Exhausted, ref.Iterations, ref.AttackedCost)
	}
}

// requireFreshCosts asserts that a journaled LP run is history-independent:
// every iteration's cost, and the final attacked cost, is bit for bit the
// cost a fresh opf.WarmSolver gives that record's vector, and agrees with a
// cold opf.Solve within 1e-9 relative (0 where the OPF does not converge).
func requireFreshCosts(t *testing.T, what string, a Analyzer, rep *Report) {
	t.Helper()
	j, _, recs, err := OpenJournal(a.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	cost := func(sol *opf.Solution, err error) float64 {
		if errors.Is(err, opf.ErrInfeasible) {
			return 0
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return sol.Cost
	}
	check := func(name string, got float64, v *attack.Vector) {
		fresh := cost(opf.NewWarmSolver(a.Grid).SolveTopology(v.MappedTopology, v.ObservedLoads))
		if math.Float64bits(got) != math.Float64bits(fresh) {
			t.Fatalf("%s: %s cost %#x, a fresh WarmSolver of its vector gives %#x",
				what, name, math.Float64bits(got), math.Float64bits(fresh))
		}
		if cold := cost(opf.Solve(a.Grid, v.MappedTopology, v.ObservedLoads)); math.Abs(got-cold) > 1e-9*math.Abs(cold) {
			t.Fatalf("%s: %s cost %v, a cold opf.Solve of its vector gives %v", what, name, got, cold)
		}
	}
	for _, r := range recs {
		switch {
		case r.Kind == RecIter:
			check(fmt.Sprintf("iteration %d", r.Iter), r.Cost, r.Vector)
		case r.Kind == RecFinal && r.Found:
			check("final record", r.AttackedCost, r.Vector)
		}
	}
	check("report", rep.AttackedCost, rep.Vector)
}

// TestCheckpointCrashPoints resumes the analysis from every state a crash
// can leave the journal in — each record cut at its start, one byte in, and
// one byte short of its newline — and requires the uninterrupted verdict
// and the uninterrupted journal bytes every time. Every cost in the
// reference journal must be the one a fresh warm solver gives its vector.
func TestCheckpointCrashPoints(t *testing.T) {
	dir := t.TempDir()
	a := cs2Analyzer()
	a.CheckpointPath = filepath.Join(dir, "ref.journal")
	ref := runAt(t, a)
	full, err := os.ReadFile(a.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations < 3 || !ref.Found {
		t.Fatalf("reference run: %d iterations, found=%v; the enumerator needs >= 3 and a verdict", ref.Iterations, ref.Found)
	}
	requireFreshCosts(t, "reference", a, ref)
	for _, cut := range crashCuts(full) {
		b := a
		b.CheckpointPath = filepath.Join(dir, fmt.Sprintf("cut%d.journal", cut))
		if err := os.WriteFile(b.CheckpointPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		requireResumedVerdict(t, fmt.Sprintf("cut at byte %d", cut), ref, runAt(t, b))
		if got, err := os.ReadFile(b.CheckpointPath); err != nil || !bytes.Equal(got, full) {
			t.Fatalf("cut at byte %d: resumed journal differs from the uninterrupted one (err=%v)", cut, err)
		}
	}
}

// TestCheckpointNoHeaderStartsFresh: an empty checkpoint file and one torn
// inside its header hold no journal, so the analysis starts fresh — on the
// first run, not after a failed one.
func TestCheckpointNoHeaderStartsFresh(t *testing.T) {
	ref := runAt(t, cs1Analyzer(3))
	for name, content := range map[string]string{
		"empty":       "",
		"torn header": `{"kind":"header","vers`,
	} {
		a := cs1Analyzer(3)
		a.CheckpointPath = filepath.Join(t.TempDir(), "cs1.journal")
		if err := os.WriteFile(a.CheckpointPath, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := a.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		requireResumedVerdict(t, name, ref, rep)
		if rep.ResumedIterations != 0 {
			t.Fatalf("%s: resumed %d iterations from no journal", name, rep.ResumedIterations)
		}
	}
}
