package opf

import (
	"context"
	"errors"
	"math"
	"math/big"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
	"gridattack/internal/smt"
)

// TestExactModelAgreesWithFeasibilityModel: on the true topology and one
// feasible exclusion of each system, the exact optimum matches Solve, and
// CostBelow answers every cap as a fresh SMT feasibility query does, the
// caps just around the optimum and its nearest float included, in any
// order.
func TestExactModelAgreesWithFeasibilityModel(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"paper5", "ieee14"} {
		g := cases.Registry()[name].Grid
		full := g.TrueTopology()
		topos := []grid.Topology{full}
		for _, ln := range g.Lines {
			if _, err := Solve(g, full.WithExcluded(ln.ID), nil); err == nil {
				topos = append(topos, full.WithExcluded(ln.ID))
				break
			}
		}
		for _, topo := range topos {
			sol, err := Solve(g, topo, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			em, err := NewExactModel(ctx, g, topo, nil)
			if err != nil {
				t.Fatalf("%s %v: %v", name, topo.Lines(), err)
			}
			exact := new(big.Rat).Add(em.Optimum(), new(big.Rat).SetFloat64(em.alpha))
			cost, _ := exact.Float64()
			if math.Abs(cost-sol.Cost) > 1e-9*sol.Cost {
				t.Fatalf("%s %v: exact optimum %v, Solve %v", name, topo.Lines(), cost, sol.Cost)
			}
			for _, c := range []float64{cost * 0.5, cost * (1 - 1e-6), cost, cost * (1 + 1e-6), cost * 10} {
				want, _, err := FeasibleWithin(g, topo, nil, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := em.CostBelow(c); got != want {
					t.Errorf("%s %v: CostBelow(%v) = %t, SMT model says %t", name, topo.Lines(), c, got, want)
				}
			}
		}
	}
}

// TestExactModelNotCertified: the cases the exact model leaves to the SMT
// model carry ErrNotCertified, a done context smt.ErrCanceled, and bad
// inputs the errors the SMT model's encoder gives.
func TestExactModelNotCertified(t *testing.T) {
	ctx := context.Background()
	g := cases.Paper5Bus()
	topo := g.TrueTopology()

	// Loads above the total generator capacity: the float LP is infeasible.
	var capacity float64
	for _, gen := range g.Generators {
		capacity += gen.MaxP
	}
	loads := g.LoadVector()
	for i := range loads {
		loads[i] = 2 * capacity
	}
	if _, err := NewExactModel(ctx, g, topo, loads); !errors.Is(err, ErrNotCertified) {
		t.Errorf("infeasible loads: %v, want ErrNotCertified", err)
	}

	// A load bus cut off from every line: the LP builder refuses it, and
	// the SMT model, which has no connectivity gate, finds no dispatch.
	load := g.LoadVector()
	bus := -1
	for i, l := range load {
		if l != 0 {
			bus = i + 1
			break
		}
	}
	isolated := topo
	for _, ln := range g.Lines {
		if ln.From == bus || ln.To == bus {
			isolated = isolated.WithExcluded(ln.ID)
		}
	}
	if _, err := NewExactModel(ctx, g, isolated, nil); !errors.Is(err, ErrNotCertified) {
		t.Errorf("isolated load bus: %v, want ErrNotCertified", err)
	}
	if ok, _, err := FeasibleWithin(g, isolated, nil, 1e9, 0); err != nil || ok {
		t.Errorf("SMT model on the isolated load bus: %t, %v; want false", ok, err)
	}

	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := NewExactModel(done, g, topo, nil); !errors.Is(err, smt.ErrCanceled) || errors.Is(err, ErrNotCertified) {
		t.Errorf("done context: %v, want smt.ErrCanceled only", err)
	}

	if _, err := NewExactModel(ctx, g, topo, []float64{1}); err == nil || errors.Is(err, ErrNotCertified) {
		t.Errorf("short load vector: %v, want an input error", err)
	}
	if _, err := AngleLP(g, topo, []float64{1}); err == nil {
		t.Error("AngleLP accepted a short load vector")
	}
}
