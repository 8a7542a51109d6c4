package opf

import "gridattack/internal/grid"

// WarmSolver is a stateless forward to Solve. It keeps no basis between
// calls and exists only because bench/gridbench's Fig. 2 replay still
// names it; nothing else reads it.
type WarmSolver struct{ g *grid.Grid }

// NewWarmSolver returns a WarmSolver for the grid. Read only by
// bench/gridbench.
func NewWarmSolver(g *grid.Grid) *WarmSolver { return &WarmSolver{g: g} }

// SolveTopology returns Solve(g, t, loads), bit for bit. Read only by
// bench/gridbench.
func (ws *WarmSolver) SolveTopology(t grid.Topology, loads []float64) (*Solution, error) {
	return Solve(ws.g, t, loads)
}
