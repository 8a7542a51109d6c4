package ems

import (
	"bytes"
	"encoding/binary"
	"math"

	"gridattack/internal/grid"
	"gridattack/internal/opf"
)

// OPFMemo memoizes OPF solutions keyed by the solver that answered, the
// mapped topology and the load-vector bits, for the grid it last saw. A
// continuous-operation loop solves the identical (topology, loads) snapshot
// cycle after cycle whenever the system is quiet; a memo hit returns a copy
// of the very Solution that solver produced for those bits, so a hit is the
// result a fresh Pipeline computes and memoization is invisible to
// bit-reproducibility guarantees.
//
// The solver byte keeps a cold solve (complete telemetry) and a
// re-optimization from the grid's baseline (degraded telemetry) of the
// same snapshot apart: each cycle gets its own solver's answer. The
// entries answer for one grid: when asked about a grid whose bits
// (grid.Grid.AppendBits) differ, the memo drops them all.
type OPFMemo struct {
	capacity int
	grid     []byte   // the bits of the grid the entries were solved for
	order    []string // least-recently-used first
	sols     map[string]*opf.Solution
	hits     int
	misses   int
}

// NewOPFMemo returns a memo retaining up to capacity solutions (capacity < 1
// selects 8). A nil *OPFMemo is a valid no-op memo.
func NewOPFMemo(capacity int) *OPFMemo {
	if capacity < 1 {
		capacity = 8
	}
	return &OPFMemo{capacity: capacity, sols: make(map[string]*opf.Solution)}
}

// Stats returns memo hits and misses.
func (m *OPFMemo) Stats() (hits, misses int) {
	if m == nil {
		return 0, 0
	}
	return m.hits, m.misses
}

// Which solver answered a memo entry: the first byte of its key.
const (
	solverCold     byte = 'c' // opf.Solve
	solverBaseline byte = 'b' // opf.WarmSolver.SolveTopology from the grid's baseline
)

// forGrid drops every entry unless gridBits are the bits of the grid the
// entries were solved for, and remembers gridBits.
func (m *OPFMemo) forGrid(gridBits []byte) {
	if bytes.Equal(m.grid, gridBits) {
		return
	}
	m.grid = append(m.grid[:0], gridBits...)
	m.order = m.order[:0]
	clear(m.sols)
}

// key renders the snapshot bits: the solver byte, one byte per line's
// in-service flag and every load's Float64bits.
func (m *OPFMemo) key(solver byte, g *grid.Grid, t grid.Topology, loads []float64) string {
	buf := make([]byte, 0, 1+g.NumLines()+8*len(loads))
	buf = append(buf, solver)
	for _, ln := range g.Lines {
		b := byte(0)
		if t.Contains(ln.ID) {
			b = 1
		}
		buf = append(buf, b)
	}
	var w [8]byte
	for _, l := range loads {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(l))
		buf = append(buf, w[:]...)
	}
	return string(buf)
}

func (m *OPFMemo) get(key string) (*opf.Solution, bool) {
	sol, ok := m.sols[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	// Refresh LRU position.
	for i, k := range m.order {
		if k == key {
			m.order = append(append(m.order[:i:i], m.order[i+1:]...), key)
			break
		}
	}
	// Copy out so a caller mutating the result cannot poison the cache.
	return copySolution(sol), true
}

func (m *OPFMemo) put(key string, sol *opf.Solution) {
	if _, ok := m.sols[key]; ok {
		return
	}
	if len(m.order) >= m.capacity {
		evict := m.order[0]
		m.order = m.order[1:]
		delete(m.sols, evict)
	}
	m.sols[key] = copySolution(sol)
	m.order = append(m.order, key)
}

// copySolution returns a deep copy of sol.
func copySolution(sol *opf.Solution) *opf.Solution {
	cp := &opf.Solution{
		Cost:     sol.Cost,
		Dispatch: append([]float64(nil), sol.Dispatch...),
		Flows:    append([]float64(nil), sol.Flows...),
	}
	if sol.Theta != nil {
		cp.Theta = append([]float64(nil), sol.Theta...)
	}
	return cp
}
