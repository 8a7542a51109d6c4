package core

import (
	"errors"
	"fmt"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/dist"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

// RunLadder evaluates the same analysis problem against several target
// cost-increase percentages ("rungs") at once — the Fig. 4(a) sweep — and
// returns one Report per target, in input order.
//
// The key structural fact the ladder exploits is that the Fig. 2 candidate
// stream is target-independent: FindVector and Block never look at the
// threshold, so the per-rung runs that a naive sweep would execute all walk
// the same candidate sequence, each stopping at its own first success. The
// ladder therefore enumerates that sequence once and verifies every
// candidate against all still-unresolved rungs:
//
//   - Under VerifyLP / VerifyShift one OPF solve per candidate (under
//     VerifyLP a re-optimization from the baseline) yields the post-attack
//     minimum cost, which is compared against every rung's threshold for
//     free.
//   - Under VerifySMT one exact model per candidate (opf.NewExactModel)
//     certifies the exact OPF optimum, which answers every rung's Eq. 38/37
//     query pair. A candidate it cannot certify goes to Run's SMT fallback
//     once per open rung.
//
// Certify (and GRIDATTACK_CERTIFY) runs this same ladder with every SMT
// check certified. Per-rung verdicts (Found, Exhausted, Canceled,
// Iterations, Vector, AttackedCost) are the ones Analyzer.Run computes at
// each target: the candidates and the verification queries are the same,
// and only a wall-clock budget (QueryTimeout) can interrupt the two at
// different points. Timing and statistics fields are attributions of shared
// work (each rung's report charges the full shared candidate-search time it
// consumed, and SolverStats totals ladder-wide effort, so summing across
// reports double-counts).
//
// CheckpointPath is not supported (a journal fingerprints a single
// threshold); callers wanting resumability should run the rungs as separate
// checkpointed Runs.
func (a *Analyzer) RunLadder(targets []float64) ([]*Report, error) {
	start := time.Now()
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: ladder needs at least one target", ErrConfig)
	}
	if a.CheckpointPath != "" {
		return nil, fmt.Errorf("%w: RunLadder does not support CheckpointPath (journals fingerprint a single threshold)", ErrConfig)
	}
	for _, t := range targets {
		if t <= 0 {
			return nil, fmt.Errorf("%w: target increase must be positive", ErrConfig)
		}
	}
	if a.Grid == nil || a.Plan == nil {
		return nil, fmt.Errorf("%w: grid and plan are required", ErrConfig)
	}
	maxIter := a.maxIterations()
	mode := a.verifyMode()
	ws, base, model, fac, err := a.setup()
	if err != nil {
		return nil, err
	}

	rungs := make([]*rung, len(targets))
	for i, t := range targets {
		rungs[i] = &rung{rep: &Report{
			BaselineCost: base.Cost,
			Threshold:    base.Cost * (1 + t/100),
		}}
	}
	unresolved := func() []*rung {
		var out []*rung
		for _, r := range rungs {
			if !r.resolved {
				out = append(out, r)
			}
		}
		return out
	}

	acc := &statsAcc{}
	iter := 0

	for {
		open := unresolved()
		if len(open) == 0 || iter >= maxIter {
			break
		}
		t0 := time.Now()
		v, err := model.FindVector()
		findTime := time.Since(t0)
		// Every open rung's per-target run would have executed this same
		// search, so each is charged its full cost.
		for _, r := range open {
			r.rep.AttackSearchTime += findTime
		}
		if errors.Is(err, smt.ErrCanceled) {
			for _, r := range open {
				r.rep.Canceled = true
				r.resolved = true
			}
			break
		}
		if err != nil {
			return nil, err
		}
		if v == nil {
			for _, r := range open {
				r.rep.Exhausted = true
				r.resolved = true
			}
			break
		}
		iter++
		for _, r := range open {
			r.rep.Iterations = iter
		}

		if err := a.ladderVerify(mode, v, ws, fac, open, acc); err != nil {
			return nil, err
		}

		if len(unresolved()) == 0 {
			break
		}
		model.Block(v, a.BlockPrecision)
	}

	acc.st.Add(model.Solver().Stats())
	elapsed := time.Since(start)
	reports := make([]*Report, len(rungs))
	for i, r := range rungs {
		acc.fill(r.rep, ws)
		r.rep.Elapsed = elapsed
		reports[i] = r.rep
	}
	return reports, nil
}

// rung is one target's in-progress state inside the ladder.
type rung struct {
	rep      *Report
	resolved bool // Found, Exhausted, Canceled, or iteration budget hit
}

// ladderVerify verifies one candidate against every open rung and resolves
// the rungs it satisfies (or cancels).
func (a *Analyzer) ladderVerify(mode VerifyMode, v *attack.Vector, ws *opf.WarmSolver, fac *dist.Factors, open []*rung, acc *statsAcc) error {
	switch mode {
	case VerifyLP, VerifyShift:
		t0 := time.Now()
		cost, converged, err := a.opfCost(mode, v, ws, fac)
		vt := time.Since(t0)
		for _, r := range open {
			r.rep.VerifyTime += vt
		}
		if err != nil {
			return err
		}
		for _, r := range open {
			if converged && cost >= r.rep.Threshold {
				r.rep.Found = true
				r.rep.Vector = v
				r.rep.AttackedCost = cost
				r.resolved = true
			}
		}
		return nil

	case VerifySMT:
		// One exact model answers every open rung; a candidate it cannot
		// certify falls back to the SMT model, one per open rung.
		t0 := time.Now()
		em, err := a.exactModel(v)
		vt := time.Since(t0)
		for _, r := range open {
			r.rep.VerifyTime += vt
		}
		if errors.Is(err, smt.ErrCanceled) {
			for _, r := range open {
				r.rep.Canceled = true
				r.resolved = true
			}
			return nil
		}
		if err == nil {
			for _, r := range open {
				if exactReached(em, r.rep.Threshold) {
					r.rep.Found = true
					r.rep.Vector = v
					r.resolved = true
				}
			}
			return nil
		}
		if !errors.Is(err, opf.ErrNotCertified) {
			return err
		}
		acc.fallbacks++
		for _, r := range open {
			t0 := time.Now()
			reached, err := a.smtReached(v, r.rep.Threshold, acc)
			r.rep.VerifyTime += time.Since(t0)
			if errors.Is(err, smt.ErrCanceled) {
				// Budget exhaustion is per rung, exactly as the rung's own
				// Run would have recorded it; the other rungs continue.
				r.rep.Canceled = true
				r.resolved = true
				continue
			}
			if err != nil {
				return err
			}
			if reached {
				r.rep.Found = true
				r.rep.Vector = v
				// AttackedCost stays 0 under VerifySMT, matching Run.
				r.resolved = true
			}
		}
		return nil

	default:
		return fmt.Errorf("%w: unknown verify mode %v", ErrConfig, mode)
	}
}

// opfCost computes the candidate's exact post-attack OPF minimum for the
// cost-based verification modes: under VerifyLP, one re-optimization from
// the baseline in ws. converged=false reports Eq. 38 non-convergence (never
// a success, at any threshold).
func (a *Analyzer) opfCost(mode VerifyMode, v *attack.Vector, ws *opf.WarmSolver, fac *dist.Factors) (cost float64, converged bool, err error) {
	var sol *opf.Solution
	switch mode {
	case VerifyLP:
		sol, err = ws.SolveTopology(v.MappedTopology, v.ObservedLoads)
	case VerifyShift:
		outage := 0
		if len(v.ExcludedLines) == 1 && len(v.IncludedLines) == 0 {
			outage = v.ExcludedLines[0]
		} else if len(v.ExcludedLines) != 0 || len(v.IncludedLines) != 0 {
			return 0, false, fmt.Errorf("%w: shift-factor verification handles single-line exclusions only", ErrConfig)
		}
		sol, err = opf.SolveShift(a.Grid, fac, outage, v.ObservedLoads)
	}
	if errors.Is(err, opf.ErrInfeasible) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return sol.Cost, true, nil
}
