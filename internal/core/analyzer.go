// Package core implements the paper's primary contribution: the formal
// framework (Fig. 2) that decides whether a stealthy topology-poisoning
// attack exists whose impact on Optimal Power Flow reaches a target
// generation-cost increase.
//
// The loop follows the paper exactly: compute the attack-free optimal cost
// T0 and the threshold T = T0*(1 + I/100); repeatedly ask the attack model
// for a stealthy vector; update the system with the vector's poisoned
// topology and shifted load estimates; verify the impact by checking that no
// OPF dispatch stays below T (Eq. 37) while OPF still converges for larger
// budgets (Eq. 38); on failure, block the vector (quantized to the paper's
// 2-digit precision, Sec. IV-A) and iterate until success or exhaustion.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/dist"
	"gridattack/internal/grid"
	"gridattack/internal/journal"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

// ErrConfig reports an invalid analyzer configuration.
var ErrConfig = errors.New("core: invalid configuration")

// VerifyMode selects how a candidate attack's OPF impact is verified.
type VerifyMode int

// Verification modes.
const (
	// VerifyLP computes the exact post-attack OPF minimum with the LP
	// simplex and compares it against the threshold.
	VerifyLP VerifyMode = iota + 1
	// VerifySMT decides the paper's OPF feasibility queries (Eqs. 37-38:
	// is there a dispatch with cost <= 10T, and one with cost <= T?) in
	// exact arithmetic. The exact model (opf.NewExactModel) certifies the
	// float LP's final basis for the SMT model's rational LP and compares
	// the exact optimum with each cap; the SMT feasibility model, where
	// unsat of "cost <= T" certifies the increase, decides only the
	// candidates it cannot certify (Report.ExactFallbacks counts them).
	VerifySMT
	// VerifyShift uses the PTDF/LODF shift-factor OPF (paper Sec. IV-A);
	// only valid for single-line exclusion attacks.
	VerifyShift
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyLP:
		return "lp"
	case VerifySMT:
		return "smt"
	case VerifyShift:
		return "shift-factor"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(m))
	}
}

// Analyzer holds one impact-analysis problem instance.
//
// Every analysis (Run, RunLadder) also returns its candidate record
// (Report.Record): the candidates in search order with their
// threshold-independent verification outcomes, and how the search ended.
// The candidate stream depends on the problem and on Verify, MaxIterations,
// BlockPrecision and Certify, never on the target, so the record answers
// other targets under that configuration: Record.Replay gives exactly the
// verdict Run computes at a target the record covers, and says when it
// does not cover one. Budgets (MaxConflicts, MaxPivots, QueryTimeout) are
// outside that contract: a replay equals a Run that no budget interrupts.
type Analyzer struct {
	Grid       *grid.Grid
	Plan       *measure.Plan
	Capability attack.Capability

	// TargetIncreasePercent is the attacker's objective I: raise the
	// generation cost by at least I% over the attack-free optimum.
	TargetIncreasePercent float64

	// OperatingDispatch is the pre-attack generation dispatch (the state
	// the attacker observes). Nil selects the attack-free OPF optimum.
	OperatingDispatch []float64

	// BlockPrecision quantizes attack vectors for blocking (paper Sec.
	// IV-A); 0 selects the paper's 2-digit precision (0.01 p.u.).
	BlockPrecision float64

	// MaxIterations caps the find-verify loop; 0 selects 200.
	MaxIterations int

	// MaxConflicts bounds SMT effort per query; 0 means unlimited.
	MaxConflicts int64

	// QueryTimeout bounds wall-clock time per SMT query; 0 means unlimited.
	// A timed-out query marks the report Canceled rather than erroring.
	QueryTimeout time.Duration

	// Verify selects the impact-verification backend; 0 selects VerifyLP.
	Verify VerifyMode

	// Parallelism is ignored: every analysis runs the one sequential Fig. 2
	// loop. It is read only by bench/gridbench.
	Parallelism int

	// MaxPivots bounds simplex pivots per SMT query (0 = unlimited); like
	// MaxConflicts, an exceeded budget marks the report Canceled.
	MaxPivots int64

	// Certify makes every SMT verdict in the analysis carry a certificate
	// that is independently checked before the verdict is trusted (see
	// DESIGN.md, "Trust model"). Certification can also be enabled
	// process-wide with the GRIDATTACK_CERTIFY environment variable.
	Certify bool

	// NoIncremental is ignored: every analysis runs the same search. It is
	// read only by bench/gridbench.
	NoIncremental bool

	// CheckpointPath enables crash-resumable analysis: every completed
	// find–verify iteration is appended (fsync'd, hash-chained) to this
	// journal file. Re-running with the same configuration and path replays
	// the journal — reusing the recorded verification verdicts — and resumes
	// at the first incomplete iteration, producing verdicts identical to an
	// uninterrupted run. Empty disables checkpointing.
	CheckpointPath string

	// JournalObserver, when set together with CheckpointPath, receives every
	// journal record in order: records replayed from an existing journal on
	// resume first (including a finalized journal's, before the reconstructed
	// report returns), then each new record as it is durably appended. The
	// serve layer turns this stream into per-job progress events. The
	// callback runs on the analysis goroutine and must not block for long.
	JournalObserver func(JournalRecord)
}

// statsAcc accumulates solver effort counters across one Run or ladder:
// the attack model's solver plus every OPF verification model.
type statsAcc struct {
	st        smt.Stats
	fallbacks int // VerifySMT candidates the exact model could not certify
}

// fill copies the accumulated counters, and ws's LP counts when ws is set,
// into rep.
func (a *statsAcc) fill(rep *Report, ws *opf.WarmSolver) {
	rep.SolverStats = a.st
	rep.ExactFallbacks = a.fallbacks
	if ws != nil {
		st := ws.Stats()
		rep.LPStats.Solves, rep.LPStats.WarmHits = st.Solves, st.Reopts
	}
}

// Report is the outcome of one analysis run.
type Report struct {
	BaselineCost float64        // attack-free OPF optimum T0
	Threshold    float64        // T = T0*(1 + I/100)
	Found        bool           // an attack reaching the threshold exists
	Exhausted    bool           // the whole (quantized) attack space was enumerated
	Canceled     bool           // the SMT conflict budget ran out before a verdict
	Vector       *attack.Vector // the successful attack, when Found
	// AttackedCost is the operator's OPF cost under the attack, when Found.
	// It stays 0 under VerifySMT, whose verdict is a comparison against the
	// threshold (an exact one, or the SMT model's), not a cost.
	AttackedCost float64
	Iterations   int // attack vectors examined
	// ResumedIterations counts the iterations whose verification verdict was
	// replayed from a checkpoint journal rather than recomputed.
	ResumedIterations int

	AttackSearchTime time.Duration // cumulative attack-model solving time
	VerifyTime       time.Duration // cumulative OPF verification time
	Elapsed          time.Duration

	// PrescreenPruned is always 0: no candidate skips verification. Read
	// only by bench/gridbench.
	PrescreenPruned int

	// LPStats counts the LP verifications of a Run or ladder (Solves) and
	// those of them re-optimized from the attack-free baseline (WarmHits);
	// the rest, the candidates that include a line, are cold solves. It is
	// zero under VerifySMT and VerifyShift.
	LPStats struct{ Solves, WarmHits int }

	// SolverStats aggregates SMT effort counters across the analysis: the
	// attack model's solver plus every SMT-backed OPF verification model. LP
	// and shift-factor verification contribute nothing. The arithmetic-kernel
	// counters (Rat64FastOps vs Rat64BigOps) show how often the hybrid
	// rationals stayed on the int64 fast path.
	SolverStats smt.Stats

	// ExactFallbacks counts the VerifySMT candidates whose OPF optimum the
	// exact model could not certify, so the SMT feasibility model decided
	// them; it is 0 under the other verification modes. A ladder's reports
	// each carry the ladder-wide count.
	ExactFallbacks int

	// Record is the analysis's candidate record, which answers other targets
	// on the same problem and configuration (Record.Replay). A ladder's
	// reports share one. Candidates replayed from a checkpoint journal carry
	// an outcome only when they were verified again (under VerifyLP).
	Record *Record
}

// Run executes the Fig. 2 loop. The report's Record holds every candidate
// the loop verified, up to the one that reached the threshold.
func (a *Analyzer) Run() (*Report, error) {
	start := time.Now()
	if a.Grid == nil || a.Plan == nil {
		return nil, fmt.Errorf("%w: grid and plan are required", ErrConfig)
	}
	if a.TargetIncreasePercent <= 0 {
		return nil, fmt.Errorf("%w: target increase must be positive", ErrConfig)
	}
	maxIter := a.maxIterations()
	ws, base, model, fac, err := a.setup()
	if err != nil {
		return nil, err
	}
	threshold := base.Cost * (1 + a.TargetIncreasePercent/100)

	rec := &Record{baseline: base.Cost}
	rep := &Report{BaselineCost: base.Cost, Threshold: threshold, Record: rec}
	acc := &statsAcc{}

	var jr *Journal
	if a.CheckpointPath != "" {
		cfg := a.journalConfig(base.Cost, threshold, maxIter)
		var recs []JournalRecord
		var done bool
		jr, recs, done, err = a.openCheckpoint(cfg, rep)
		if err != nil {
			return nil, err
		}
		if a.JournalObserver != nil {
			for _, rec := range recs {
				a.JournalObserver(rec)
			}
			if jr != nil {
				jr.observer = a.JournalObserver
			}
		}
		if jr != nil {
			defer jr.Close()
		}
		if !done && len(recs) > 0 {
			var reverify func(*attack.Vector) (candidate, bool, error)
			if a.verifyMode() == VerifyLP {
				reverify = func(v *attack.Vector) (candidate, bool, error) {
					return a.verify(v, ws, fac, threshold, acc)
				}
			}
			done, err = a.replayCheckpoint(rep, model, jr, recs, maxIter, reverify)
			if err != nil {
				return nil, err
			}
		}
		if done {
			acc.st.Add(model.Solver().Stats())
			acc.fill(rep, ws)
			rep.Elapsed = time.Since(start)
			return rep, nil
		}
	}

	for rep.Iterations < maxIter {
		t0 := time.Now()
		v, err := model.FindVector()
		rep.AttackSearchTime += time.Since(t0)
		if errors.Is(err, smt.ErrCanceled) {
			rep.Canceled = true
			rec.end = endCanceled
			break
		}
		if err != nil {
			return nil, err
		}
		if v == nil {
			rep.Exhausted = true
			rec.end = endExhausted
			if jr != nil {
				if err := jr.AppendFinal(false, true, nil, 0); err != nil {
					return nil, err
				}
			}
			break
		}
		rep.Iterations++

		t1 := time.Now()
		c, reached, err := a.verify(v, ws, fac, threshold, acc)
		rep.VerifyTime += time.Since(t1)
		if errors.Is(err, smt.ErrCanceled) {
			rep.Canceled = true
			rec.end = endCanceled
			break
		}
		if err != nil {
			return nil, err
		}
		rec.cands = append(rec.cands, c)
		if jr != nil {
			if err := jr.AppendIter(rep.Iterations, v, c.cost, reached); err != nil {
				return nil, err
			}
		}
		if reached {
			rep.Found = true
			rep.Vector = v
			rep.AttackedCost = c.cost
			rec.end = endResolved
			if jr != nil {
				if err := jr.AppendFinal(true, false, v, c.cost); err != nil {
					return nil, err
				}
			}
			break
		}
		model.Block(v, a.BlockPrecision)
	}
	if rec.end == endOpen { // the loop ran to the cap
		rec.end = endCapped
	}
	acc.st.Add(model.Solver().Stats())
	acc.fill(rep, ws)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// verifyMode is a.Verify with its default applied.
func (a *Analyzer) verifyMode() VerifyMode {
	if a.Verify == 0 {
		return VerifyLP
	}
	return a.Verify
}

// defaultMaxIterations is the iteration cap MaxIterations 0 selects.
const defaultMaxIterations = 200

// maxIterations is a.MaxIterations with its default applied.
func (a *Analyzer) maxIterations() int {
	if a.MaxIterations <= 0 {
		return defaultMaxIterations
	}
	return a.MaxIterations
}

// setup prepares what Run and RunLadder share before the Fig. 2 loop: the
// warm solver that holds the attack-free OPF optimum and re-optimizes every
// LP verification from it, that optimum, the attack model at the operating
// point with the per-query budgets and Certify, and the shift factors
// VerifyShift needs (nil otherwise).
func (a *Analyzer) setup() (*opf.WarmSolver, *opf.Solution, *attack.Model, *dist.Factors, error) {
	trueTopo := a.Grid.TrueTopology()
	ws := opf.NewWarmSolver(a.Grid)
	base, err := ws.Baseline()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: attack-free OPF: %w", err)
	}
	dispatch := a.OperatingDispatch
	if dispatch == nil {
		dispatch = base.Dispatch
	}
	pf, err := a.Grid.SolvePowerFlow(trueTopo, dispatch)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: operating point: %w", err)
	}

	model, err := attack.NewModel(a.Grid, a.Plan, a.Capability, pf)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	model.MaxConflicts = a.MaxConflicts
	model.MaxDuration = a.QueryTimeout
	model.MaxPivots = a.MaxPivots
	model.Certify = a.Certify

	var fac *dist.Factors
	if a.Verify == VerifyShift {
		fac, err = dist.New(a.Grid, trueTopo)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("core: shift factors: %w", err)
		}
	}
	return ws, base, model, fac, nil
}

// journalConfig builds the configuration fingerprint stored in (and checked
// against) a checkpoint journal's header.
func (a *Analyzer) journalConfig(baseline, threshold float64, maxIter int) JournalConfig {
	return JournalConfig{
		Encoding:              journalEncoding(a.Certify || smt.CertifyDefault()),
		Buses:                 a.Grid.NumBuses(),
		Lines:                 a.Grid.NumLines(),
		BaselineCost:          baseline,
		Threshold:             threshold,
		TargetPercent:         a.TargetIncreasePercent,
		MaxIterations:         maxIter,
		VerifyMode:            int(a.verifyMode()),
		BlockPrecision:        a.BlockPrecision,
		MaxMeasurements:       a.Capability.MaxMeasurements,
		MaxBuses:              a.Capability.MaxBuses,
		States:                a.Capability.States,
		RequireTopologyChange: a.Capability.RequireTopologyChange,
	}
}

// openCheckpoint opens or creates the journal at a.CheckpointPath (a file
// without a complete header is no journal: the run starts fresh). It
// returns the journal positioned for appending, the iteration records to
// replay, and done=true when the journal already holds the final verdict
// (in which case rep carries the reconstructed outcome and no journal is
// returned).
func (a *Analyzer) openCheckpoint(cfg JournalConfig, rep *Report) (*Journal, []JournalRecord, bool, error) {
	j, have, recs, err := OpenJournal(a.CheckpointPath)
	if errors.Is(err, journal.ErrNoJournal) {
		j, err := CreateJournal(a.CheckpointPath, cfg)
		return j, nil, false, err
	}
	if err != nil {
		return nil, nil, false, err
	}
	if *have != cfg {
		j.Close()
		return nil, nil, false, fmt.Errorf("%w: %s was written by a different analysis configuration", ErrJournal, a.CheckpointPath)
	}
	if n := len(recs); n > 0 && recs[n-1].Kind == RecFinal {
		// Fully finalized run: reconstruct the verdict without re-solving.
		fin := recs[n-1]
		for _, r := range recs {
			if r.Kind == RecIter {
				rep.Iterations++
				rep.ResumedIterations++
			}
		}
		rep.Found = fin.Found
		rep.Exhausted = fin.Exhausted
		rep.Vector = fin.Vector
		rep.AttackedCost = fin.AttackedCost
		j.Close()
		// The records are still returned so a JournalObserver can replay the
		// finalized run's history.
		return nil, recs, true, nil
	}
	return j, recs, false, nil
}

// replayCheckpoint re-runs the journaled iterations. The candidate searches
// are recomputed — the solver's learned clauses and heuristic state are what
// make the candidate sequence deterministic, so that state must be rebuilt —
// but the journaled verification verdicts are reused. reverify, when set,
// re-solves a candidate's verification (one re-optimization from the
// baseline, or a cold solve for an inclusion) as a check: its cost and
// reached flag must equal the journaled ones bit for bit, and the
// re-verified outcome joins rep.Record; without it the candidate joins the
// record without an outcome.
// Each regenerated candidate must match the journal exactly; a mismatch
// means the journal belongs to a different problem. Returns done=true when
// the replay reached a definitive verdict.
func (a *Analyzer) replayCheckpoint(rep *Report, model *attack.Model, jr *Journal, recs []JournalRecord, maxIter int, reverify func(*attack.Vector) (candidate, bool, error)) (bool, error) {
	for _, rec := range recs {
		if rec.Kind != RecIter {
			return true, fmt.Errorf("%w: unexpected %q record during replay", ErrJournal, rec.Kind)
		}
		if rep.Iterations >= maxIter {
			return true, fmt.Errorf("%w: journal holds more iterations than the configured maximum", ErrJournal)
		}
		t0 := time.Now()
		v, err := model.FindVector()
		rep.AttackSearchTime += time.Since(t0)
		if errors.Is(err, smt.ErrCanceled) {
			rep.Canceled = true
			return true, nil
		}
		if err != nil {
			return true, err
		}
		if v == nil || !vectorsEqual(v, rec.Vector) {
			return true, fmt.Errorf("%w: iteration %d regenerated a different candidate than the journal records (was the input changed?)", ErrJournal, rec.Iter)
		}
		c := candidate{vector: v, noOutcome: true}
		if reverify != nil {
			var reached bool
			c, reached, err = reverify(v)
			if err != nil {
				return true, err
			}
			if math.Float64bits(c.cost) != math.Float64bits(rec.Cost) || reached != rec.Reached {
				return true, fmt.Errorf("%w: iteration %d re-verified to cost %v reached=%t, the journal records %v reached=%t", ErrJournal, rec.Iter, c.cost, reached, rec.Cost, rec.Reached)
			}
		}
		rep.Record.cands = append(rep.Record.cands, c)
		rep.Iterations++
		rep.ResumedIterations++
		if rec.Reached {
			rep.Found = true
			rep.Vector = v
			rep.AttackedCost = rec.Cost
			rep.Record.end = endResolved
			return true, jr.AppendFinal(true, false, v, rec.Cost)
		}
		model.Block(v, a.BlockPrecision)
	}
	return false, nil
}

// verify evaluates one candidate vector against threshold: the operator
// reruns OPF on the poisoned topology with the attack's load estimates. An
// attack succeeds when the resulting minimum cost is at least the threshold
// while OPF still converges (Eq. 38: the attacker avoids non-convergent
// outcomes). It returns the candidate with its outcome and whether it
// reaches threshold; a candidate the exact model cannot certify has no
// outcome, and the SMT fallback decides it at this threshold.
func (a *Analyzer) verify(v *attack.Vector, ws *opf.WarmSolver, fac *dist.Factors, threshold float64, acc *statsAcc) (candidate, bool, error) {
	c, err := a.outcome(v, ws, fac, acc)
	if err != nil || !c.noOutcome {
		return c, c.reaches(threshold), err
	}
	reached, err := a.smtReached(v, threshold, acc)
	return c, reached, err
}

// outcome verifies candidate v once, independently of any threshold: the
// post-attack OPF minimum under VerifyLP and VerifyShift, the certified
// exact optimum under VerifySMT, which answers every threshold's Eq. 38/37
// pair. A VerifySMT candidate the exact model cannot certify comes back
// with noOutcome set and counts as a fallback in acc.
func (a *Analyzer) outcome(v *attack.Vector, ws *opf.WarmSolver, fac *dist.Factors, acc *statsAcc) (candidate, error) {
	c := candidate{vector: v}
	var err error
	switch mode := a.verifyMode(); mode {
	case VerifyLP, VerifyShift:
		c.cost, c.converged, err = a.opfCost(mode, v, ws, fac)
	case VerifySMT:
		c.exact, err = a.exactModel(v)
		if errors.Is(err, opf.ErrNotCertified) {
			acc.fallbacks++
			c.noOutcome, err = true, nil
		}
	default:
		err = fmt.Errorf("%w: unknown verify mode %v", ErrConfig, mode)
	}
	return c, err
}

// smtReached is the SMT fallback for a candidate the exact model cannot
// certify. One OPF feasibility model answers both the Eq. 38 and the Eq. 37
// query: the topology/load constraints are encoded once and the two cost
// caps asserted in turn, the generous cap first because an assertion cannot
// be retracted. Unsat at the generous cap implies unsat at the tight one, so
// the order does not change the outcome. The model's effort joins acc.
func (a *Analyzer) smtReached(v *attack.Vector, threshold float64, acc *statsAcc) (bool, error) {
	fm, err := opf.NewFeasibilityModel(a.Grid, v.MappedTopology, v.ObservedLoads, a.MaxConflicts, a.QueryTimeout)
	if err != nil {
		return false, err
	}
	defer func() { acc.st.Add(fm.Stats()) }()
	fm.MaxPivots = a.MaxPivots
	fm.Certify = a.Certify
	// Eq. 38: OPF must converge for a generous budget...
	ctx := context.Background()
	converges, err := fm.CheckCostBelow(ctx, threshold*10)
	if err != nil || !converges {
		return false, err
	}
	// ...Eq. 37: while no dispatch stays below the threshold.
	below, err := fm.CheckCostBelow(ctx, threshold)
	if err != nil {
		return false, err
	}
	return !below, nil
}

// exactModel certifies candidate v's OPF optimum, under the deadline of one
// QueryTimeout like a single SMT query; on expiry the error matches
// smt.ErrCanceled.
func (a *Analyzer) exactModel(v *attack.Vector) (*opf.ExactModel, error) {
	ctx := context.Background()
	if a.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.QueryTimeout)
		defer cancel()
	}
	return opf.NewExactModel(ctx, a.Grid, v.MappedTopology, v.ObservedLoads)
}
