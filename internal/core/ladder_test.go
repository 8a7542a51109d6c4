package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"gridattack/internal/smt"
)

// ladderTargets is a Fig. 4(a)-style rung set spanning reachable and
// unreachable targets on the paper's 5-bus Case Study 1 system.
var ladderTargets = []float64{1, 3, 6, 50}

// TestRunLadderMatchesIndependentRuns: each rung's report from the ladder
// must carry the verdict an independent Run at that target computes, with
// and without certification.
func TestRunLadderMatchesIndependentRuns(t *testing.T) {
	for _, certify := range []bool{false, true} {
		for _, mode := range []VerifyMode{VerifyLP, VerifySMT} {
			a := cs1Analyzer(ladderTargets[0])
			a.Verify = mode
			a.Certify = certify
			a.Parallelism = 1
			reps, err := a.RunLadder(ladderTargets)
			if err != nil {
				t.Fatalf("%v certify=%t: RunLadder: %v", mode, certify, err)
			}
			if len(reps) != len(ladderTargets) {
				t.Fatalf("%v certify=%t: got %d reports, want %d", mode, certify, len(reps), len(ladderTargets))
			}
			var foundAny bool
			for i, target := range ladderTargets {
				ref := cs1Analyzer(target)
				ref.Verify = mode
				ref.Certify = certify
				want := runAt(t, ref, 1)
				requireSameVerdict(t, want, reps[i], 1)
				foundAny = foundAny || reps[i].Found
			}
			if !foundAny {
				t.Fatalf("%v certify=%t: no rung found an attack; the A/B is vacuous", mode, certify)
			}
		}
	}
}

// TestRunLadderConfig: invalid ladder configurations are refused up front.
func TestRunLadderConfig(t *testing.T) {
	a := cs1Analyzer(1)
	if _, err := a.RunLadder(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("empty targets: err=%v, want ErrConfig", err)
	}
	if _, err := a.RunLadder([]float64{1, -2}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative target: err=%v, want ErrConfig", err)
	}
	a.CheckpointPath = filepath.Join(t.TempDir(), "ladder.journal")
	if _, err := a.RunLadder([]float64{1, 2}); !errors.Is(err, ErrConfig) {
		t.Errorf("checkpointed ladder: err=%v, want ErrConfig", err)
	}
}

// TestCheckpointResumesEitherEncoding: a journal header records
// "encoding":"cold" for a certified run and "incremental" otherwise, as the
// journals of earlier builds do. Each resumes, under the certification it
// records, to the uninterrupted verdict, cut halfway through the iterations
// or finalized.
func TestCheckpointResumesEitherEncoding(t *testing.T) {
	// Under the GRIDATTACK_CERTIFY lane every analysis certifies; pin the
	// uncertified half.
	defer smt.SetCertifyDefault(smt.SetCertifyDefault(false))
	a := searchAnalyzer(t, "ieee14", 0, false, VerifyLP) // two candidates, then exhausted
	ref := runAt(t, a, 1)
	if !ref.Exhausted || ref.Iterations < 2 {
		t.Fatalf("reference: exhausted=%t after %d iterations, want an exhausted multi-iteration run", ref.Exhausted, ref.Iterations)
	}
	dir := t.TempDir()
	for _, enc := range []string{"incremental", "cold"} {
		b := a
		b.Certify = enc == "cold"
		b.CheckpointPath = filepath.Join(dir, enc+".journal")
		runAt(t, b, 1)
		j, cfg, recs, err := OpenJournal(b.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if cfg.Encoding != enc {
			t.Errorf("certify=%t: header records encoding %q, want %q", b.Certify, cfg.Encoding, enc)
		}

		for _, keep := range []int{ref.Iterations / 2, len(recs)} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.journal", enc, keep))
			w, err := CreateJournal(path, *cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:keep] {
				if r.Kind == RecIter {
					err = w.AppendIter(r.Iter, r.Vector, r.Cost, r.Reached)
				} else {
					err = w.AppendFinal(r.Found, r.Exhausted, r.Vector, r.AttackedCost)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			c := b
			c.CheckpointPath = path
			rep := runAt(t, c, 1)
			requireSameVerdict(t, ref, rep, 1)
			if want := min(keep, ref.Iterations); rep.ResumedIterations != want {
				t.Errorf("%s journal with %d records: resumed %d iterations, want %d", enc, keep, rep.ResumedIterations, want)
			}
		}
	}
}

// TestCheckpointEncodingMismatch: a journal resumes only under the
// certification its header records. A certified run, by Certify or by
// GRIDATTACK_CERTIFY, refuses an uncertified journal even when it is
// finalized, since it would report verdicts no checker saw. An uncertified
// run refuses a certified journal, since it would append unchecked verdicts
// to a journal that claims them checked.
func TestCheckpointEncodingMismatch(t *testing.T) {
	// Under the GRIDATTACK_CERTIFY lane every analysis certifies; pin the
	// contrast this test exists to exercise.
	defer smt.SetCertifyDefault(smt.SetCertifyDefault(false))
	for _, certify := range []bool{false, true} {
		a := cs1Analyzer(3)
		a.Certify = certify
		a.CheckpointPath = filepath.Join(t.TempDir(), "cs1enc.journal")
		runAt(t, a, 1)

		b := a
		b.Certify = !certify
		if _, err := b.Run(); !errors.Is(err, ErrJournal) {
			t.Fatalf("certify=%t resume of a finalized certify=%t journal: err=%v, want ErrJournal", b.Certify, certify, err)
		}
		if !certify {
			smt.SetCertifyDefault(true)
			_, err := a.Run()
			smt.SetCertifyDefault(false)
			if !errors.Is(err, ErrJournal) {
				t.Fatalf("GRIDATTACK_CERTIFY resume of an uncertified journal: err=%v, want ErrJournal", err)
			}
		}

		// The same certification resumes the finalized run without solving.
		rep := runAt(t, a, 1)
		if rep.ResumedIterations != rep.Iterations {
			t.Errorf("certify=%t: finalized re-run resumed %d of %d iterations", certify, rep.ResumedIterations, rep.Iterations)
		}
	}
}
