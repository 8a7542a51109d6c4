package ems

import (
	"testing"

	"gridattack/internal/cases"
)

// TestOPFMemoBitTransparent: a memo hit must return the cold solve's exact
// bits, the cached entry must survive callers mutating what they got back,
// and eviction must follow LRU order.
func TestOPFMemoBitTransparent(t *testing.T) {
	g := cases.Paper5Bus()
	p := NewPipeline(g, cases.Paper5PlanCase1())
	p.Memo = NewOPFMemo(2)
	topoAll := g.TrueTopology()
	loads := g.LoadVector()

	cold, err := p.solveOPF(topoAll, loads, false)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := p.solveOPF(topoAll, loads, false)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := p.Memo.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if hit.Cost != cold.Cost {
		t.Errorf("memo hit cost %v != cold cost %v", hit.Cost, cold.Cost)
	}
	for j := range cold.Dispatch {
		if hit.Dispatch[j] != cold.Dispatch[j] {
			t.Errorf("dispatch[%d]: hit %v != cold %v", j, hit.Dispatch[j], cold.Dispatch[j])
		}
	}

	// Mutating a returned solution must not poison the cache.
	hit.Dispatch[0] += 99
	again, err := p.solveOPF(topoAll, loads, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Dispatch[0] != cold.Dispatch[0] {
		t.Fatalf("cache poisoned: dispatch[0] = %v, want %v", again.Dispatch[0], cold.Dispatch[0])
	}

	// Two more distinct load vectors overflow capacity 2; the oldest key
	// (the original loads) must be the one evicted.
	loadsB := append([]float64(nil), loads...)
	loadsB[0] += 0.01
	loadsC := append([]float64(nil), loads...)
	loadsC[0] += 0.02
	if _, err := p.solveOPF(topoAll, loadsB, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.solveOPF(topoAll, loadsC, false); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := p.Memo.Stats()
	if _, err := p.solveOPF(topoAll, loads, false); err != nil {
		t.Fatal(err)
	}
	if _, misses := p.Memo.Stats(); misses != missesBefore+1 {
		t.Fatalf("original entry not evicted: misses %d, want %d", misses, missesBefore+1)
	}

	// A nil memo is a valid no-op.
	var none *OPFMemo
	if h, m := none.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil memo stats = %d/%d, want 0/0", h, m)
	}
}
