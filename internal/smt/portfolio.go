package smt

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// testReplicaFault, when non-nil, is invoked with the replica index at the
// start of every portfolio worker. Tests install a panicking hook here to
// exercise the crash-isolation path.
var testReplicaFault func(i int)

// maxSharedClauseLen bounds the learned clauses migrated from losing
// portfolio replicas back into the surviving solver: only short clauses
// (the most reusable ones) are worth the transfer.
const maxSharedClauseLen = 3

// CheckContext is Check with context cancellation: when ctx is canceled, the
// search stops at its next poll point and returns ErrCanceled. A ctx without
// a Done channel degrades to a plain Check with no watcher goroutine.
func (s *Solver) CheckContext(ctx context.Context) (Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return s.Check()
	}
	if err := ctx.Err(); err != nil {
		return 0, ErrCanceled
	}
	var stop atomic.Bool
	s.SetInterrupt(&stop)
	defer s.SetInterrupt(nil)
	finished := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-finished:
		}
	}()
	res, err := s.Check()
	close(finished)
	<-watcherDone
	return res, err
}

// CheckPortfolio races n diversified replicas of the solver on the current
// assertions: the first verdict wins and cancels the losers. On Sat, the
// winner's entire state — including its model — is adopted into s, so
// BoolValue/RealValue read the winning model afterwards; on Unsat, short
// clauses learned by the losing replicas are merged back into s for future
// incremental Check calls.
//
// The verdict is deterministic (every replica decides the same formula with
// exact arithmetic), but the Sat model depends on which replica wins the
// race. Use CheckPortfolioStable when downstream behaviour must be
// bit-for-bit independent of n.
func (s *Solver) CheckPortfolio(ctx context.Context, n int) (Result, error) {
	return s.portfolio(ctx, n, false)
}

// CheckPortfolioStable races n replicas but only accepts early verdicts that
// cannot perturb determinism: helper replicas may prove Unsat (an objective
// fact that carries no model), while Sat verdicts — which carry a model —
// are only ever taken from the undiversified primary replica, whose search
// is identical to a sequential Check. The result (verdict and, on Sat, the
// model) is therefore the same at every n; helpers can only make unsat
// answers arrive sooner. The one asymmetry is effort bounds: a helper may
// prove Unsat before the primary exhausts its conflict/time budget, turning
// a sequential ErrCanceled into a sound Unsat.
func (s *Solver) CheckPortfolioStable(ctx context.Context, n int) (Result, error) {
	return s.portfolio(ctx, n, true)
}

// portfolioOutcome is one replica's race result, received in completion
// order.
type portfolioOutcome struct {
	idx int
	res Result
	err error
}

func (s *Solver) portfolio(ctx context.Context, n int, stable bool) (Result, error) {
	if n <= 1 {
		res, err := s.CheckContext(ctx)
		// The portfolio entry points promise certified verdicts: at width 1
		// there is no winner-selection step to do it, so check here (unless
		// selfCheck already did inside Check).
		if err == nil && s.Certify && !s.selfCheck {
			cert := s.Certificate()
			if cert == nil {
				return 0, fmt.Errorf("smt: certified check produced no certificate")
			}
			if verr := cert.Verify(); verr != nil {
				return 0, fmt.Errorf("smt: certificate verification failed: %w", verr)
			}
		}
		return res, err
	}
	replicas := make([]*Solver, n)
	learnedStart := make([]int, n)
	replicas[0] = s
	for i := 1; i < n; i++ {
		r := s.Clone()
		r.diversify(i)
		replicas[i] = r
	}
	var stop atomic.Bool
	for i, r := range replicas {
		r.SetInterrupt(&stop)
		learnedStart[i] = len(r.core.clauses)
	}

	outcomes := make(chan portfolioOutcome, n)
	var wg sync.WaitGroup
	for i, r := range replicas {
		wg.Add(1)
		go func(i int, r *Solver) {
			defer wg.Done()
			res, err := func() (res Result, err error) {
				// A replica that panics (a bug, or a corrupted clone) must not
				// take the whole process down: it becomes a per-worker error
				// and the race continues on the survivors.
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("smt: portfolio replica %d panicked: %v\n%s", i, p, debug.Stack())
					}
				}()
				if testReplicaFault != nil {
					testReplicaFault(i)
				}
				return r.Check()
			}()
			if err == nil && (!stable || i == 0 || res == Unsat) {
				// A usable verdict: stop the other replicas. In stable mode
				// a helper's Sat is not usable (its model would make the
				// outcome depend on n), so the primary keeps running.
				stop.Store(true)
			}
			outcomes <- portfolioOutcome{idx: i, res: res, err: err}
		}(i, r)
	}
	watcherDone := make(chan struct{})
	raceDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		if ctx == nil || ctx.Done() == nil {
			return
		}
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-raceDone:
		}
	}()
	wg.Wait()
	close(raceDone)
	<-watcherDone
	close(outcomes)
	for _, r := range replicas {
		r.SetInterrupt(nil)
	}

	// The first usable verdict in completion order wins — but under
	// certification a winner is trusted only once its certificate checks out;
	// a replica whose certificate is rejected is demoted to a per-worker
	// error and the next finisher is considered.
	winner := -1
	var verdict Result
	var primaryErr error
	var workerErrs []error
	for o := range outcomes {
		if o.err != nil {
			if o.idx == 0 {
				primaryErr = o.err
			} else {
				workerErrs = append(workerErrs, o.err)
			}
			continue
		}
		if stable && o.idx != 0 && o.res == Sat {
			continue
		}
		if r := replicas[o.idx]; r.Certify && !r.selfCheck {
			cert := r.Certificate()
			if cert == nil {
				workerErrs = append(workerErrs, fmt.Errorf("smt: portfolio replica %d produced no certificate", o.idx))
				continue
			}
			if err := cert.Verify(); err != nil {
				workerErrs = append(workerErrs, fmt.Errorf("smt: portfolio replica %d certificate rejected: %w", o.idx, err))
				continue
			}
		}
		winner = o.idx
		verdict = o.res
		break
	}
	if winner < 0 {
		// No usable verdict. The primary's error (typically a budget or
		// cancellation) is the meaningful one; a helper error (e.g. a panic)
		// is surfaced only when the primary produced none.
		if primaryErr != nil {
			return 0, primaryErr
		}
		if len(workerErrs) > 0 {
			return 0, workerErrs[0]
		}
		return 0, ErrCanceled
	}
	if winner != 0 {
		if stable {
			// The primary's state is untouched (determinism), but the verdict
			// being returned is the helper's: hand its certificate over so
			// Certificate() backs what the caller just saw.
			s.lastCert = replicas[winner].lastCert
		} else {
			// Adopt the winning replica wholesale: its model (on Sat) and its
			// learned clauses replace the primary's state.
			*s = *replicas[winner]
			s.SetInterrupt(nil)
		}
	}
	if verdict == Unsat {
		// Migrate short learned clauses from the losers into the surviving
		// solver; they are implied by the shared assertions, so they stay
		// sound for future incremental Check calls. (Skipped on Sat, where
		// rewinding to decision level 0 would discard the model; skipped in
		// stable mode, where extra clauses would perturb the primary's
		// deterministic search on later queries; skipped under certification,
		// where absorbed clauses would enter the clause database as premises
		// the proof checker has no derivation for.)
		if !stable && !s.Certify {
			for i, r := range replicas {
				if i == winner || r == s {
					continue
				}
				s.absorbLearned(r, learnedStart[i])
			}
		}
	}
	return verdict, nil
}

// absorbLearned copies the short clauses `from` learned since index `since`
// into s at decision level 0.
func (s *Solver) absorbLearned(from *Solver, since int) {
	s.backtrackAll()
	for _, cr := range from.core.clauses[since:] {
		if lits := from.core.lits(cr); from.core.learned(cr) && len(lits) <= maxSharedClauseLen {
			s.addClause(lits)
		}
	}
}
