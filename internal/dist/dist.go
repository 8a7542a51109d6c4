// Package dist computes linear distribution factors for the DC network
// model: PTDF (power transfer distribution factors / generation shift
// factors), LODF (line outage distribution factors), and LCDF (line closure
// distribution factors). The paper's scalability optimization (Sec. IV-A)
// replaces the angle-based OPF constraints with shift factors and uses
// LODF/LCDF to handle single-line exclusion/inclusion attacks without
// rebuilding the network model.
//
// The implementation never forms B⁻¹. The reduced susceptance matrix is
// factorized once by grid.FactorizeB (dense or sparse LU depending on
// system size) and every factor is derived from per-line transfer vectors
// w_l = B⁻¹(e_from − e_to), computed lazily and cached: by symmetry of B,
//
//	PTDF(l, j) = d_l · w_l[j]
//
// so one triangular solve yields a full PTDF row, and the same vector drives
// all LODFs of an outage of line l.
package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gridattack/internal/grid"
	"gridattack/internal/linalg"
)

// ErrRadial indicates a factor is undefined because the operation would
// disconnect the network (outage of a radial line) or the line pair is
// degenerate.
var ErrRadial = errors.New("dist: factor undefined (network would split)")

// Factors holds a factorization of the reduced susceptance matrix for one
// grid and topology, with lazily cached per-line transfer vectors. Safe for
// concurrent use.
type Factors struct {
	grid *grid.Grid
	topo grid.Topology

	fact linalg.Factorization
	// idx maps bus ID -> reduced index (-1 for the reference bus).
	idx []int

	mu sync.Mutex
	// lineVec[line ID] = B⁻¹(e_from − e_to) in reduced coordinates, the
	// transfer vector of the line; nil entries are not yet computed.
	lineVec map[int][]float64
}

// New computes factors for the grid under the given topology, factorizing
// B through grid.FactorizeB.
func New(g *grid.Grid, t grid.Topology) (*Factors, error) {
	if !g.Connected(t) {
		return nil, fmt.Errorf("dist: %w", ErrRadial)
	}
	fact, err := g.FactorizeB(t)
	if err != nil {
		return nil, fmt.Errorf("dist: B matrix factorization: %w", err)
	}
	b := g.NumBuses()
	idx := make([]int, b+1)
	ri := 0
	for _, bus := range g.Buses {
		if bus.ID == g.RefBus {
			idx[bus.ID] = -1
			continue
		}
		idx[bus.ID] = ri
		ri++
	}
	return &Factors{
		grid:    g,
		topo:    t,
		fact:    fact,
		idx:     idx,
		lineVec: make(map[int][]float64),
	}, nil
}

// transferVector returns (computing and caching on first use) the reduced
// solution w = B⁻¹(e_from − e_to) for the line, or nil when the line is not
// in the topology.
func (f *Factors) transferVector(line int) []float64 {
	ln := f.grid.Lines[line-1]
	if !f.topo.Contains(ln.ID) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if w, ok := f.lineVec[line]; ok {
		return w
	}
	rhs := make([]float64, f.fact.Order())
	if fi := f.idx[ln.From]; fi >= 0 {
		rhs[fi] += 1
	}
	if ti := f.idx[ln.To]; ti >= 0 {
		rhs[ti] -= 1
	}
	w, err := f.fact.Solve(rhs)
	if err != nil {
		// Solve on a successful factorization only fails on a malformed rhs
		// length, which cannot happen here.
		panic(fmt.Sprintf("dist: transfer solve for line %d: %v", line, err))
	}
	f.lineVec[line] = w
	return w
}

// PTDF returns the sensitivity of line's flow to a unit injection at bus
// (withdrawn at the reference bus). Lines outside the topology have zero
// sensitivity.
func (f *Factors) PTDF(line, bus int) float64 {
	w := f.transferVector(line)
	if w == nil {
		return 0
	}
	ji := f.idx[bus]
	if ji < 0 {
		return 0 // injection at reference: zero by definition
	}
	return f.grid.Lines[line-1].Admittance * w[ji]
}

// Flows computes all line flows from net bus injections with a single
// triangular solve (theta = B⁻¹ P, then branch equations).
func (f *Factors) Flows(injections []float64) ([]float64, error) {
	if len(injections) != f.grid.NumBuses() {
		return nil, fmt.Errorf("dist: injection vector length %d, want %d", len(injections), f.grid.NumBuses())
	}
	rhs := make([]float64, f.fact.Order())
	for _, bus := range f.grid.Buses {
		if ri := f.idx[bus.ID]; ri >= 0 {
			rhs[ri] = injections[bus.ID-1]
		}
	}
	theta, err := f.fact.Solve(rhs)
	if err != nil {
		return nil, fmt.Errorf("dist: flow solve: %w", err)
	}
	out := make([]float64, f.grid.NumLines())
	for _, ln := range f.grid.Lines {
		if !f.topo.Contains(ln.ID) {
			continue
		}
		var tf, tt float64
		if fi := f.idx[ln.From]; fi >= 0 {
			tf = theta[fi]
		}
		if ti := f.idx[ln.To]; ti >= 0 {
			tt = theta[ti]
		}
		out[ln.ID-1] = ln.Admittance * (tf - tt)
	}
	return out, nil
}

// transferFlow returns PTDF(monitored, from(outaged)) - PTDF(monitored,
// to(outaged)): the flow picked up by `monitored` per unit transferred across
// the endpoints of `outaged`. Computed from the outaged line's cached
// transfer vector so a whole outage scan costs one solve.
func (f *Factors) transferFlow(monitored int, w []float64) float64 {
	ln := f.grid.Lines[monitored-1]
	var xf, xt float64
	if fi := f.idx[ln.From]; fi >= 0 {
		xf = w[fi]
	}
	if ti := f.idx[ln.To]; ti >= 0 {
		xt = w[ti]
	}
	return ln.Admittance * (xf - xt)
}

// LODF returns the line outage distribution factor: the fraction of the
// pre-outage flow of `outaged` that appears on `monitored` after `outaged`
// opens. Both lines must be in the topology.
func (f *Factors) LODF(monitored, outaged int) (float64, error) {
	if monitored == outaged {
		return -1, nil // by convention the outaged line loses all its flow
	}
	if !f.topo.Contains(monitored) || !f.topo.Contains(outaged) {
		return 0, fmt.Errorf("dist: LODF of lines outside the topology")
	}
	w := f.transferVector(outaged)
	ptdfMon := f.transferFlow(monitored, w)
	ptdfOut := f.transferFlow(outaged, w)
	den := 1 - ptdfOut
	if math.Abs(den) < 1e-9 {
		return 0, ErrRadial
	}
	return ptdfMon / den, nil
}

// FlowsAfterOutage returns post-outage line flows given pre-outage flows,
// using LODFs (outaged line's flow redistributes over the rest).
func (f *Factors) FlowsAfterOutage(pre []float64, outaged int) ([]float64, error) {
	if len(pre) != f.grid.NumLines() {
		return nil, fmt.Errorf("dist: flow vector length %d, want %d", len(pre), f.grid.NumLines())
	}
	if !f.topo.Contains(outaged) {
		return nil, fmt.Errorf("dist: outaged line %d not in the topology", outaged)
	}
	// A bridge outage islands the network; refuse up front rather than
	// relying on a monitored line's LODF to hit the singular denominator —
	// when the outaged line is the only line, the loop below would otherwise
	// return a spurious all-zero "prediction".
	w := f.transferVector(outaged)
	den := 1 - f.transferFlow(outaged, w)
	if math.Abs(den) < 1e-9 {
		return nil, ErrRadial
	}
	out := make([]float64, len(pre))
	for _, ln := range f.grid.Lines {
		if ln.ID == outaged {
			out[ln.ID-1] = 0
			continue
		}
		if !f.topo.Contains(ln.ID) {
			continue
		}
		lodf := f.transferFlow(ln.ID, w) / den
		out[ln.ID-1] = pre[ln.ID-1] + lodf*pre[outaged-1]
	}
	return out, nil
}

// LCDF returns the line closure distribution factor for closing line
// `closed` (currently open): the change of flow on `monitored` per unit of
// post-closure flow on `closed`. Following Sauer et al.'s extended factors,
// closing is the dual of an outage computed on the topology that includes
// the line.
func LCDF(g *grid.Grid, t grid.Topology, monitored, closed int) (float64, error) {
	if t.Contains(closed) {
		return 0, fmt.Errorf("dist: line %d already closed", closed)
	}
	withLine := t.WithIncluded(closed)
	fac, err := New(g, withLine)
	if err != nil {
		return 0, err
	}
	if monitored == closed {
		return 1, nil
	}
	// The closure of the line injects its flow at the receiving bus and
	// withdraws at the sending bus relative to the pre-closure network; on
	// the post-closure network the monitored line picks up -LODF of it.
	lodf, err := fac.LODF(monitored, closed)
	if err != nil {
		return 0, err
	}
	return -lodf, nil
}
