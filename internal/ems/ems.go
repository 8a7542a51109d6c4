// Package ems wires the control-center modules of the paper's Fig. 1 into a
// pipeline: telemetry -> topology processor -> state estimator (with
// bad-data detection) -> optimal power flow -> AGC generation set-points.
// It is the "operator side" against which the attack's economic impact is
// measured end to end.
package ems

import (
	"bytes"
	"errors"
	"fmt"

	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/se"
	"gridattack/internal/topo"
)

// ErrBadData is returned by RunCycle when bad-data detection fires; the
// operator would discard the telemetry and keep the previous dispatch.
var ErrBadData = errors.New("ems: bad data detected, cycle aborted")

// Pipeline is one EMS instance. It keeps one state estimator across
// cycles, and from its first degraded cycle the attack-free OPF baseline of
// its grid; like them, it is not safe for concurrent use.
//
// A cycle's OPF depends on its snapshot alone. On complete telemetry it is
// a cold opf.Solve. On degraded telemetry (RunCycleResilient with an
// incomplete measurement set) it is re-optimized, with
// opf.WarmSolver.SolveTopology, from the true topology solved at the
// grid's own loads, a function of the grid alone: a degraded load picture
// differs from the grid's loads in the last bits, and that takes no pivot
// where a cold solve takes hundreds. Either answer depends only on the
// grid, the topology and the loads, never on earlier cycles.
type Pipeline struct {
	Grid *grid.Grid
	Plan *measure.Plan
	// ResidualThreshold configures bad-data detection (0: chi-square test).
	ResidualThreshold float64
	// Memo, when non-nil, short-circuits OPF solves whose (solver,
	// topology, loads) bits were seen before on the same grid, returning a
	// copy of the previously computed solution. A hit is that solver's
	// exact result, bit-identical to re-solving, so a quiet
	// continuous-operation cycle stays cheap without giving up
	// bit-reproducibility.
	Memo *OPFMemo

	// est is the state estimator of estGrid and estPlan, kept across
	// cycles so that it can reuse its gain factorization.
	est     *se.Estimator
	estGrid *grid.Grid
	estPlan *measure.Plan

	// warm re-optimizes degraded cycles' OPFs from the baseline of
	// warmGrid, whose bits were warmBits; gridBits is the scratch the
	// current grid's bits are appended to (grid.Grid.AppendBits).
	warm     *opf.WarmSolver
	warmGrid *grid.Grid
	warmBits []byte
	gridBits []byte

	stats OPFStats
}

// OPFStats counts how a Pipeline answered the OPFs of its cycles.
type OPFStats struct {
	MemoHits int `json:"memo_hits"` // answered by the memo
	Cold     int `json:"cold"`      // solved cold by opf.Solve
	Reopts   int `json:"reopts"`    // re-optimized from the grid's baseline
	Pivots   int `json:"pivots"`    // simplex pivots of those re-optimizations
}

// OPFStats returns the counts so far.
func (p *Pipeline) OPFStats() OPFStats { return p.stats }

// estimator returns the pipeline's state estimator, rebuilt when Grid or
// Plan is no longer the one it was built for, with the current threshold.
func (p *Pipeline) estimator() *se.Estimator {
	if p.est == nil || p.estGrid != p.Grid || p.estPlan != p.Plan {
		p.est, p.estGrid, p.estPlan = se.NewEstimator(p.Grid, p.Plan), p.Grid, p.Plan
	}
	p.est.Threshold = p.ResidualThreshold
	return p.est
}

// solveOPF answers a cycle's OPF through the memo when configured: cold on
// complete telemetry, re-optimized from the grid's baseline when degraded.
func (p *Pipeline) solveOPF(t grid.Topology, loads []float64, degraded bool) (*opf.Solution, error) {
	p.gridBits = p.Grid.AppendBits(p.gridBits[:0])
	solver := solverCold
	if degraded {
		solver = solverBaseline
	}
	var key string
	if p.Memo != nil {
		p.Memo.forGrid(p.gridBits)
		key = p.Memo.key(solver, p.Grid, t, loads)
		if sol, ok := p.Memo.get(key); ok {
			p.stats.MemoHits++
			return sol, nil
		}
	}
	var sol *opf.Solution
	var err error
	if degraded {
		sol, err = p.reoptimize(t, loads)
	} else {
		p.stats.Cold++
		sol, err = opf.Solve(p.Grid, t, loads)
	}
	if err == nil && p.Memo != nil {
		p.Memo.put(key, sol)
	}
	return sol, err
}

// reoptimize solves the OPF from the grid's attack-free baseline, building
// it on first use and again whenever Grid, or any bit of it, is no longer
// what it was built from. A topology the baseline cannot reach (a line
// outside the true topology) is solved cold by the WarmSolver.
func (p *Pipeline) reoptimize(t grid.Topology, loads []float64) (*opf.Solution, error) {
	if p.warm == nil || p.warmGrid != p.Grid || !bytes.Equal(p.warmBits, p.gridBits) {
		p.warm, p.warmGrid = opf.NewWarmSolver(p.Grid), p.Grid
		p.warmBits = append(p.warmBits[:0], p.gridBits...)
	}
	before := p.warm.Stats()
	sol, err := p.warm.SolveTopology(t, loads)
	if after := p.warm.Stats(); after.Reopts > before.Reopts {
		p.stats.Reopts++
		p.stats.Pivots += after.Pivots - before.Pivots
	} else {
		p.stats.Cold++
	}
	return sol, err
}

// NewPipeline returns an EMS for the grid and measurement plan.
func NewPipeline(g *grid.Grid, plan *measure.Plan) *Pipeline {
	return &Pipeline{Grid: g, Plan: plan}
}

// CycleResult is the outcome of one EMS cycle.
type CycleResult struct {
	Topology      grid.Topology // as mapped by the topology processor
	Estimate      *se.Result    // state estimation output
	LoadEstimates []float64     // per-bus load picture fed to OPF
	Dispatch      *opf.Solution // OPF result: new generation set-points

	// Degraded-mode annotations (RunCycleResilient). Degraded is set when
	// the estimate was built from an incomplete measurement set. Stale is
	// set when pseudo-measurements from the last good snapshot (or an
	// island estimate with unknown buses) back the load picture — the
	// operator should treat the dispatch as best-effort. Redispatched is
	// false when OPF was skipped (islanded estimate with an incomplete
	// load picture) and Dispatch echoes the current set-points.
	Degraded     bool
	Stale        bool
	Redispatched bool
}

// RunCycle executes one full EMS cycle. currentDispatch is the generation
// currently on the machines (known from secure generator telemetry); it is
// used to separate load from generation in the estimated bus consumptions.
func (p *Pipeline) RunCycle(z *measure.Vector, report *topo.Report, currentDispatch []float64) (*CycleResult, error) {
	if len(currentDispatch) != p.Grid.NumBuses() {
		return nil, fmt.Errorf("ems: dispatch vector length %d, want %d", len(currentDispatch), p.Grid.NumBuses())
	}
	proc := topo.NewProcessor(p.Grid)
	mapped, err := proc.Map(report)
	if err != nil {
		return nil, fmt.Errorf("ems: topology processing: %w", err)
	}
	res, err := p.estimator().Estimate(mapped, z)
	if err != nil {
		return nil, fmt.Errorf("ems: state estimation: %w", err)
	}
	if res.BadData {
		return nil, fmt.Errorf("%w (residual %.6f, suspect measurement %d)",
			ErrBadData, res.Residual, res.SuspectMeasurement)
	}
	// Loads = estimated consumption + known generation (paper Sec. III-E:
	// generation measurements are secure, so consumption changes are load
	// changes).
	loads := make([]float64, p.Grid.NumBuses())
	for j := range loads {
		loads[j] = res.LoadEstimate[j] + currentDispatch[j]
		if loads[j] < 0 && loads[j] > -1e-9 {
			loads[j] = 0
		}
	}
	sol, err := p.solveOPF(mapped, loads, false)
	if err != nil {
		return nil, fmt.Errorf("ems: OPF: %w", err)
	}
	return &CycleResult{
		Topology:      mapped,
		Estimate:      res,
		LoadEstimates: loads,
		Dispatch:      sol,
		Redispatched:  true,
	}, nil
}

// RunCycleResilient executes one EMS cycle on possibly-degraded telemetry:
// missing measurements are tolerated via the state estimator's degraded
// modes (survivor solve, pseudo-measurements from lastGood, island solve),
// and the OPF consumes the degraded estimate with a staleness flag instead
// of the cycle aborting. Bad-data detection still aborts the cycle — a
// residual that survives degradation is evidence of tampering, not noise.
//
// When the estimate is islanded (some bus angles unknown), re-dispatching
// on a fabricated load picture would be dangerous, so the cycle holds the
// current dispatch and reports Redispatched=false.
func (p *Pipeline) RunCycleResilient(z *measure.Vector, report *topo.Report, currentDispatch []float64, lastGood *measure.Vector) (*CycleResult, error) {
	if len(currentDispatch) != p.Grid.NumBuses() {
		return nil, fmt.Errorf("ems: dispatch vector length %d, want %d", len(currentDispatch), p.Grid.NumBuses())
	}
	proc := topo.NewProcessor(p.Grid)
	mapped, err := proc.Map(report)
	if err != nil {
		return nil, fmt.Errorf("ems: topology processing: %w", err)
	}
	res, err := p.estimator().EstimatePartial(mapped, z, lastGood)
	if err != nil {
		return nil, fmt.Errorf("ems: state estimation: %w", err)
	}
	if res.BadData {
		return nil, fmt.Errorf("%w (residual %.6f, suspect measurement %d)",
			ErrBadData, res.Residual, res.SuspectMeasurement)
	}
	out := &CycleResult{
		Topology: mapped,
		Estimate: res,
		Degraded: res.Degraded,
		Stale:    len(res.Pseudo) > 0 || res.IslandBuses != nil,
	}
	loads := make([]float64, p.Grid.NumBuses())
	for j := range loads {
		loads[j] = res.LoadEstimate[j] + currentDispatch[j]
		if loads[j] < 0 && loads[j] > -1e-9 {
			loads[j] = 0
		}
	}
	out.LoadEstimates = loads
	if res.IslandBuses != nil {
		// Hold the current set-points; the load picture outside the island
		// is unknown.
		out.Dispatch = &opf.Solution{Dispatch: append([]float64(nil), currentDispatch...), Cost: p.TrueCost(currentDispatch)}
		return out, nil
	}
	sol, err := p.solveOPF(mapped, loads, res.Degraded)
	if err != nil {
		return nil, fmt.Errorf("ems: OPF: %w", err)
	}
	out.Dispatch = sol
	out.Redispatched = true
	return out, nil
}

// TrueCost evaluates what the operator actually pays when running the given
// dispatch: the sum of each generator's cost function at its output.
func (p *Pipeline) TrueCost(dispatch []float64) float64 {
	var total float64
	for _, gen := range p.Grid.Generators {
		total += gen.Cost(dispatch[gen.Bus-1])
	}
	return total
}
