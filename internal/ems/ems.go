// Package ems wires the control-center modules of the paper's Fig. 1 into a
// pipeline: telemetry -> topology processor -> state estimator (with
// bad-data detection) -> optimal power flow -> AGC generation set-points.
// It is the "operator side" against which the attack's economic impact is
// measured end to end.
package ems

import (
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

// Pipeline is one EMS instance.
type Pipeline struct {
	Grid *grid.Grid
	Plan *measure.Plan
	// ResidualThreshold configures bad-data detection (0: chi-square test).
	ResidualThreshold float64
	// Memo, when non-nil, short-circuits OPF solves whose (topology, loads)
	// bits were seen before, returning a copy of the previously computed
	// solution. A hit is the exact cold result, bit-identical to
	// re-solving, so a quiet continuous-operation cycle stays cheap without
	// giving up bit-reproducibility.
	Memo *OPFMemo
}

// solveOPF dispatches through the memo when configured.
func (p *Pipeline) solveOPF(t grid.Topology, loads []float64) (*opf.Solution, error) {
	var key string
	if p.Memo != nil {
		key = p.Memo.key(p.Grid, t, loads)
		if sol, ok := p.Memo.get(key); ok {
			return sol, nil
		}
	}
	sol, err := opf.Solve(p.Grid, t, loads)
	if err == nil && p.Memo != nil {
		p.Memo.put(key, sol)
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
	est := se.NewEstimator(p.Grid, p.Plan)
	est.Threshold = p.ResidualThreshold
	res, err := est.Estimate(mapped, z)
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
	sol, err := p.solveOPF(mapped, loads)
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
	est := se.NewEstimator(p.Grid, p.Plan)
	est.Threshold = p.ResidualThreshold
	res, err := est.EstimatePartial(mapped, z, lastGood)
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
	sol, err := p.solveOPF(mapped, loads)
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
