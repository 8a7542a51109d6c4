package ems

import (
	"encoding/binary"
	"math"

	"gridattack/internal/grid"
	"gridattack/internal/opf"
)

// OPFMemo memoizes exact OPF solutions keyed by the mapped topology and the
// load-vector bits. A continuous-operation loop solves the identical
// (topology, loads) snapshot cycle after cycle whenever the system is quiet;
// a memo hit returns a copy of the very Solution the cold solver produced
// for those bits, so a hit is the exact cold result and memoization is
// invisible to bit-reproducibility guarantees.
type OPFMemo struct {
	capacity int
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

// key renders the snapshot bits: one byte per line's in-service flag
// followed by every load's Float64bits.
func (m *OPFMemo) key(g *grid.Grid, t grid.Topology, loads []float64) string {
	buf := make([]byte, 0, g.NumLines()+8*len(loads))
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
	cp := &opf.Solution{
		Cost:     sol.Cost,
		Dispatch: append([]float64(nil), sol.Dispatch...),
		Flows:    append([]float64(nil), sol.Flows...),
	}
	if sol.Theta != nil {
		cp.Theta = append([]float64(nil), sol.Theta...)
	}
	return cp, true
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
	cp := &opf.Solution{
		Cost:     sol.Cost,
		Dispatch: append([]float64(nil), sol.Dispatch...),
		Flows:    append([]float64(nil), sol.Flows...),
	}
	if sol.Theta != nil {
		cp.Theta = append([]float64(nil), sol.Theta...)
	}
	m.sols[key] = cp
	m.order = append(m.order, key)
}
