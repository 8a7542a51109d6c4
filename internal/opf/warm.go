package opf

import (
	"gridattack/internal/grid"
	"gridattack/internal/lp"
)

// WarmSolver solves the OPF of a grid's candidate topologies (the Fig. 2
// loop's re-run of OPF, Eqs. 37-38) from the attack-free baseline: it
// solves the true topology once, keeps the final tableau (lp.Baseline), and
// re-optimizes each topology that only removes lines from it. A hidden
// topology attack moves one or a few lines, so that takes a few pivots
// where a cold solve takes hundreds. Each re-optimization starts from the
// baseline, so its result depends only on its topology and loads; it
// agrees with Solve's to round-off. A topology that includes a line outside
// the true topology goes to Solve. A WarmSolver is not safe for concurrent
// use.
type WarmSolver struct {
	g     *grid.Grid
	base  *Solution
	err   error // the baseline's
	lp    *lp.Baseline
	av    *angleVars
	rhs   []float64 // scratch: defining rows stay 0, nodal rows take -load
	stats WarmStats
}

// WarmStats counts a WarmSolver's LP solves, the baseline's excluded.
type WarmStats struct {
	Solves int // SolveTopology calls that solved an LP
	Reopts int // those of them re-optimized from the baseline
	Pivots int // simplex pivots of the re-optimizations
}

// NewWarmSolver solves g's true topology at the grid's loads at once, and
// keeps the result, or its error for Baseline to return.
func NewWarmSolver(g *grid.Grid) *WarmSolver {
	ws := &WarmSolver{g: g}
	p, av, err := gatedAngleLP(g, g.TrueTopology(), nil)
	if err != nil {
		ws.err = err
		return ws
	}
	sol, b, err := p.SolveBaseline()
	if ws.base, ws.err = angleResult(g, sol, av, err); ws.err == nil {
		ws.lp, ws.av, ws.rhs = b, av, make([]float64, p.NumConstraints())
	}
	return ws
}

// Baseline returns the dispatch of the true topology at the grid's loads:
// Solve(g, g.TrueTopology(), nil), bit for bit.
func (ws *WarmSolver) Baseline() (*Solution, error) { return ws.base, ws.err }

// Stats returns the counts so far.
func (ws *WarmSolver) Stats() WarmStats { return ws.stats }

// SolveTopology returns the minimum-cost dispatch under mapped topology t
// serving loads (nil = the grid's own), after Solve's input checks and
// connectivity gate. It re-optimizes from the baseline when every line of t
// is in the true topology and calls Solve otherwise, or when the baseline
// failed.
func (ws *WarmSolver) SolveTopology(t grid.Topology, loads []float64) (*Solution, error) {
	if ws.err != nil {
		return Solve(ws.g, t, loads)
	}
	loads, err := checkSolveInputs(ws.g, loads)
	if err != nil {
		return nil, err
	}
	if !ws.g.Connected(t) {
		return nil, errDisconnected
	}
	ws.stats.Solves++
	var fix, drop []int // the removed lines' flow columns and defining rows
	for _, ln := range ws.g.Lines {
		switch in, row := t.Contains(ln.ID), ws.av.flowRow[ln.ID]; {
		case in && row < 0:
			return Solve(ws.g, t, loads)
		case !in && row >= 0:
			fix, drop = append(fix, ws.av.flowVar[ln.ID]), append(drop, row)
		}
	}
	for k, bus := range ws.g.Buses {
		ws.rhs[ws.av.nodalRow+k] = -loads[bus.ID-1]
	}
	ws.stats.Reopts++
	sol, err := ws.lp.Reoptimize(fix, drop, ws.rhs)
	if err == nil {
		ws.stats.Pivots += sol.Pivots
	}
	out, err := angleResult(ws.g, sol, ws.av, err)
	if err != nil {
		return nil, err
	}
	for _, ln := range ws.g.Lines {
		if !t.Contains(ln.ID) {
			out.Flows[ln.ID-1] = 0 // a removed line carries no flow
		}
	}
	return out, nil
}
