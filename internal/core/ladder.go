package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/dist"
	"gridattack/internal/expr"
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
// incremental ladder therefore enumerates that sequence once and verifies
// every candidate against all still-unresolved rungs:
//
//   - Under VerifyLP / VerifyShift one exact OPF solve per candidate yields
//     the post-attack minimum cost, which is compared against every rung's
//     threshold for free.
//   - Under VerifySMT one exact model per candidate (opf.NewExactModel)
//     certifies the exact OPF optimum, which answers every rung's Eq. 38/37
//     query pair. Only a candidate it cannot certify builds a feasibility
//     model — on a ladder-wide shared expression builder, so structurally
//     common constraints are constructed once — that answers the open
//     rungs through retractable assumption literals (see
//     opf.FeasibilityModel.Incremental), reusing the solver's learned
//     clauses and simplex state across rungs.
//
// Per-rung verdicts (Found, Exhausted, Canceled, Iterations, Vector,
// AttackedCost) are identical to running Analyzer.Run once per target for
// every rung that no per-query budget interrupts: Sat/Unsat outcomes are
// pure logic, so sharing solver state cannot change them. When a budget
// (MaxConflicts, MaxPivots, QueryTimeout) does bind, the two paths may
// cancel at different points — the incremental path reuses learned clauses
// and simplex state and typically gets further on the same budget, so a
// rung the cold path reports Canceled can resolve to a real verdict here.
// Rungs where neither path cancels still match exactly. Timing and
// statistics fields are attributions of shared work (each rung's report
// charges the full shared candidate-search time it consumed, and
// SolverStats totals ladder-wide effort, so summing across reports
// double-counts).
//
// When NoIncremental or Certify is set, RunLadder falls back to exactly that
// naive sweep: one independent cold Run per target. CheckpointPath is not
// supported in either mode (a journal fingerprints a single threshold);
// callers wanting resumability should run the rungs as separate checkpointed
// Runs.
func (a *Analyzer) RunLadder(targets []float64) ([]*Report, error) {
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
	if !a.incremental() {
		reports := make([]*Report, len(targets))
		for i, t := range targets {
			sub := *a
			sub.TargetIncreasePercent = t
			rep, err := sub.Run()
			if err != nil {
				return nil, err
			}
			reports[i] = rep
		}
		return reports, nil
	}
	return a.runLadderIncremental(targets)
}

// rung is one target's in-progress state inside the incremental ladder.
type rung struct {
	rep      *Report
	resolved bool // Found, Exhausted, Canceled, or iteration budget hit
}

func (a *Analyzer) runLadderIncremental(targets []float64) ([]*Report, error) {
	start := time.Now()
	if a.Grid == nil || a.Plan == nil {
		return nil, fmt.Errorf("%w: grid and plan are required", ErrConfig)
	}
	maxIter := a.MaxIterations
	if maxIter <= 0 {
		maxIter = 200
	}
	mode := a.Verify
	if mode == 0 {
		mode = VerifyLP
	}

	trueTopo := a.Grid.TrueTopology()
	base, err := opf.Solve(a.Grid, trueTopo, nil)
	if err != nil {
		return nil, fmt.Errorf("core: attack-free OPF: %w", err)
	}
	dispatch := a.OperatingDispatch
	if dispatch == nil {
		dispatch = base.Dispatch
	}
	pf, err := a.Grid.SolvePowerFlow(trueTopo, dispatch)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}

	model, err := attack.NewModel(a.Grid, a.Plan, a.Capability, pf)
	if err != nil {
		return nil, err
	}
	model.MaxConflicts = a.MaxConflicts
	model.MaxDuration = a.QueryTimeout
	model.MaxPivots = a.MaxPivots

	var fac *dist.Factors
	if mode == VerifyShift {
		fac, err = dist.New(a.Grid, trueTopo)
		if err != nil {
			return nil, fmt.Errorf("core: shift factors: %w", err)
		}
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

	// vb is the ladder-wide expression builder: every fallback SMT
	// verification model interns its constraints through it, so nodes (and
	// their lowered formulas) common across candidates are built once.
	vb := expr.NewBuilder()
	acc := &statsAcc{}
	ctx := context.Background()
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

		if err := a.ladderVerify(ctx, mode, v, fac, vb, open, acc); err != nil {
			return nil, err
		}

		if len(unresolved()) == 0 {
			break
		}
		model.Block(v, a.BlockPrecision)
	}

	acc.add(model.Solver().Stats())
	elapsed := time.Since(start)
	reports := make([]*Report, len(rungs))
	for i, r := range rungs {
		acc.fill(r.rep)
		r.rep.Elapsed = elapsed
		reports[i] = r.rep
	}
	return reports, nil
}

// ladderVerify verifies one candidate against every open rung and resolves
// the rungs it satisfies (or cancels).
func (a *Analyzer) ladderVerify(ctx context.Context, mode VerifyMode, v *attack.Vector, fac *dist.Factors, vb *expr.Builder, open []*rung, acc *statsAcc) error {
	switch mode {
	case VerifyLP, VerifyShift:
		t0 := time.Now()
		cost, converged, err := a.opfCost(mode, v, fac)
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
		// certify falls back to the shared-builder SMT model below.
		t0 := time.Now()
		em, err := a.exactModel(ctx, v)
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
		acc.addFallback()
		fm, err := opf.NewFeasibilityModelShared(vb, a.Grid, v.MappedTopology, v.ObservedLoads, a.MaxConflicts, a.QueryTimeout)
		if err != nil {
			return err
		}
		defer func() { acc.add(fm.Stats()) }()
		fm.Incremental = true
		fm.MaxPivots = a.MaxPivots
		for _, r := range open {
			t0 := time.Now()
			reached, err := ladderSMTQuery(ctx, fm, r.rep.Threshold)
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
				// AttackedCost stays 0 under VerifySMT certification,
				// matching Run.
				r.resolved = true
			}
		}
		return nil

	default:
		return fmt.Errorf("%w: unknown verify mode %v", ErrConfig, mode)
	}
}

// opfCost computes the candidate's exact post-attack OPF minimum for the
// cost-based verification modes (one cold solve). converged=false reports
// Eq. 38 non-convergence (never a success, at any threshold).
func (a *Analyzer) opfCost(mode VerifyMode, v *attack.Vector, fac *dist.Factors) (cost float64, converged bool, err error) {
	var sol *opf.Solution
	switch mode {
	case VerifyLP:
		sol, err = opf.Solve(a.Grid, v.MappedTopology, v.ObservedLoads)
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

// ladderSMTQuery runs one rung's Eq. 38 / Eq. 37 pair against the shared
// incremental feasibility model: the attack succeeds at this threshold when
// OPF still converges for a generous budget while no dispatch stays below
// the threshold itself.
func ladderSMTQuery(ctx context.Context, fm *opf.FeasibilityModel, threshold float64) (bool, error) {
	converges, err := fm.CheckCostBelow(ctx, threshold*10)
	if err != nil {
		return false, err
	}
	if !converges {
		return false, nil
	}
	below, err := fm.CheckCostBelow(ctx, threshold)
	if err != nil {
		return false, err
	}
	return !below, nil
}
