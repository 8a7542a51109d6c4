package core

import (
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/opf"
)

// TestPrescreenPrune exercises the pruning decision directly: with ample
// line capacity the merit-order witness is feasible, so any threshold above
// its cost must prune an eligible single-exclusion candidate, and thresholds
// at or below it must not.
func TestPrescreenPrune(t *testing.T) {
	g := cases.IEEE14Bus()
	for i := range g.Lines {
		g.Lines[i].Capacity *= 10 // decongest: the witness flows fit easily
	}
	base, err := opf.Solve(g, g.TrueTopology(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := newPrescreener(g, nil, base.Cost*1.05, nil)
	if ps == nil {
		t.Fatal("prescreener unavailable")
	}
	v := &attack.Vector{
		ExcludedLines: []int{5},
		ObservedLoads: g.LoadVector(),
	}
	cost, ok := ps.prune(v)
	if !ok {
		t.Fatal("eligible candidate with a feasible cheap witness must prune")
	}
	if cost >= base.Cost*1.05 {
		t.Fatalf("witness cost %v not below the threshold %v", cost, base.Cost*1.05)
	}

	// Multi-line and included-line candidates are out of scope: never prune.
	if _, ok := ps.prune(&attack.Vector{ExcludedLines: []int{5, 6}, ObservedLoads: g.LoadVector()}); ok {
		t.Fatal("multi-exclusion candidate must not prune")
	}
	if _, ok := ps.prune(&attack.Vector{IncludedLines: []int{5}, ObservedLoads: g.LoadVector()}); ok {
		t.Fatal("included-line candidate must not prune")
	}

	// A threshold below the witness cost cannot be certified.
	tight := newPrescreener(g, nil, cost*0.999, nil)
	if _, ok := tight.prune(v); ok {
		t.Fatal("threshold below the witness cost must not prune")
	}
}

// TestPrescreenWitness: the merit-order witness must balance the demand
// exactly and respect generator limits. (Its cost may undercut the OPF
// optimum when the dispatch violates line capacities — that is exactly why
// prune() checks the flows before trusting it.)
func TestPrescreenWitness(t *testing.T) {
	g := cases.IEEE14Bus()
	ps := newPrescreener(g, nil, 1, nil)
	if ps == nil {
		t.Fatal("prescreener unavailable on a meshed grid")
	}
	gen, cost, ok := ps.witness(g.TotalLoad())
	if !ok {
		t.Fatal("witness infeasible for the nominal load")
	}
	if cost <= 0 {
		t.Fatalf("witness cost = %v, want positive", cost)
	}
	var tot float64
	for _, p := range gen {
		tot += p
	}
	if d := tot - g.TotalLoad(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("witness dispatch off balance by %v", d)
	}
	perBus := make(map[int]float64)
	for _, gn := range g.Generators {
		perBus[gn.Bus] += gn.MaxP
	}
	for i, p := range gen {
		if p < -1e-12 || p > perBus[i+1]+1e-9 {
			t.Fatalf("bus %d dispatch %v outside [0, %v]", i+1, p, perBus[i+1])
		}
	}
	// An undeliverable demand must be rejected rather than mis-certified.
	if _, _, ok := ps.witness(1e9); ok {
		t.Fatal("witness must fail when the fleet cannot serve the demand")
	}
}
