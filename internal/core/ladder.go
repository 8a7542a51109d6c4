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
// the same candidate sequence, each stopping at its own first success.
// The ladder therefore enumerates that sequence once into its candidate
// record, verifying each candidate once, and resolves every still-open rung
// by replaying the record (Record.Replay's walk and end rule):
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
// reports double-counts). The reports share the ladder's Record, which
// answers further targets on the problem without a search.
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
	ws, base, model, fac, err := a.setup()
	if err != nil {
		return nil, err
	}

	rec := &Record{baseline: base.Cost}
	rungs := make([]*rung, len(targets))
	for i, t := range targets {
		rungs[i] = &rung{rep: &Report{
			BaselineCost: base.Cost,
			Threshold:    base.Cost * (1 + t/100),
			Record:       rec,
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
	for {
		open := unresolved()
		if len(open) == 0 {
			rec.end = endResolved
			break
		}
		if len(rec.cands) >= maxIter {
			rec.end = endCapped
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
			rec.end = endCanceled
			break
		}
		if err != nil {
			return nil, err
		}
		if v == nil {
			rec.end = endExhausted
			break
		}

		more, err := a.ladderStep(v, rec, open, ws, fac, acc)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		if len(unresolved()) > 0 {
			model.Block(v, a.BlockPrecision)
		}
	}
	if err := settleRungs(rec, rungs, maxIter); err != nil {
		return nil, err
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
	next     int  // record position the rung's replay resumes at
	resolved bool // Found or Canceled while the search ran
}

// ladderStep verifies candidate v once into the record and resolves the
// open rungs it decides. It reports false when a canceled verification ends
// the record; settleRungs then cancels every rung still open.
func (a *Analyzer) ladderStep(v *attack.Vector, rec *Record, open []*rung, ws *opf.WarmSolver, fac *dist.Factors, acc *statsAcc) (bool, error) {
	t0 := time.Now()
	c, err := a.outcome(v, ws, fac, acc)
	vt := time.Since(t0)
	for _, r := range open {
		r.rep.VerifyTime += vt
		r.rep.Iterations = len(rec.cands) + 1
	}
	if errors.Is(err, smt.ErrCanceled) {
		rec.end = endCanceled
		return false, nil
	}
	if err != nil {
		return false, err
	}
	rec.cands = append(rec.cands, c)
	for _, r := range open {
		if err := a.advance(r, rec, acc); err != nil {
			return false, err
		}
	}
	return true, nil
}

// settleRungs decides the rungs still open when the ladder's search ended:
// the record's end decides them as it decides a replay, except a
// cancellation, which is the rungs' own.
func settleRungs(rec *Record, rungs []*rung, maxIter int) error {
	for _, r := range rungs {
		switch {
		case r.resolved:
		case rec.end == endCanceled:
			r.rep.Canceled = true
		case !rec.settle(r.rep, r.next, maxIter):
			return fmt.Errorf("core: ladder ended %v with a rung its record does not decide", rec.end)
		}
	}
	return nil
}

// advance replays the record's candidates that rung r has not walked yet
// against its threshold, and resolves r at the first that reaches it. A
// candidate without an outcome goes to Run's SMT fallback at r's threshold,
// whose budget exhaustion cancels r alone, exactly as r's own Run would
// have recorded it.
func (a *Analyzer) advance(r *rung, rec *Record, acc *statsAcc) error {
	for !r.resolved && r.next < len(rec.cands) {
		pos, found := rec.walk(r.rep.Threshold, r.next, len(rec.cands))
		if pos == len(rec.cands) {
			r.next = pos
			return nil
		}
		c := &rec.cands[pos]
		r.next = pos + 1
		r.rep.Iterations = r.next
		if !found {
			t0 := time.Now()
			reached, err := a.smtReached(c.vector, r.rep.Threshold, acc)
			r.rep.VerifyTime += time.Since(t0)
			if errors.Is(err, smt.ErrCanceled) {
				r.rep.Canceled = true
				r.resolved = true
				return nil
			}
			if err != nil {
				return err
			}
			found = reached
		}
		if found {
			r.rep.Found = true
			r.rep.Vector = c.vector
			r.rep.AttackedCost = c.cost // 0 under VerifySMT, matching Run
			r.resolved = true
		}
	}
	return nil
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
