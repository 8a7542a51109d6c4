package opf

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
)

// requireSameBits fails unless two OPF results are identical bit for bit.
func requireSameBits(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	var g, w goldenDigest
	g.opf(got, nil)
	w.opf(want, nil)
	if g.sum() != w.sum() {
		t.Fatalf("%s: cost %#x, want %#x (or a vector differs)", what, math.Float64bits(got.Cost), math.Float64bits(want.Cost))
	}
}

// TestWarmBaselineIsSolve: the warm solver's baseline is the cold solve of
// the true topology, bit for bit, on every evaluation system.
func TestWarmBaselineIsSolve(t *testing.T) {
	for _, name := range cases.EvaluationOrder() {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Grid
		want, err := Solve(g, g.TrueTopology(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := NewWarmSolver(g).Baseline()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameBits(t, name, got, want)
	}
}

// TestWarmInclusionIsSolve: a topology that maps a line outside the true
// topology is solved cold, so it gives Solve's bits.
func TestWarmInclusionIsSolve(t *testing.T) {
	g := cases.IEEE14Bus().Clone()
	var all []int
	for _, ln := range g.Lines {
		all = append(all, ln.ID)
	}
	open := -1
	for i, ln := range g.Lines {
		if g.Connected(grid.NewTopology(all).WithExcluded(ln.ID)) {
			g.Lines[i].InService, open = false, ln.ID
			break
		}
	}
	ws := NewWarmSolver(g)
	topo := grid.NewTopology(all)
	loads := g.LoadVector()
	loads[2] *= 1.02
	got, err := ws.SolveTopology(topo, loads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(g, topo, loads)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, fmt.Sprintf("inclusion of line %d", open), got, want)
	if st := ws.Stats(); st.Solves != 1 || st.Reopts != 0 {
		t.Fatalf("stats %+v, want one cold solve", st)
	}
}

// shiftedLoads returns the grid's loads with line id's baseline flow moved
// onto the loads of its end buses, as a hidden exclusion shifts them.
func shiftedLoads(g *grid.Grid, base *Solution, id int) []float64 {
	loads := g.LoadVector()
	ln := g.Lines[id-1]
	f := base.Flows[id-1]
	loads[ln.From-1] += f
	loads[ln.To-1] -= f
	return loads
}

// TestWarmSingleExclusionsAgreeWithSolve: every single-line exclusion of
// the small systems, with the line's flow moved onto its end buses' loads,
// re-optimizes to the cold solve's feasibility and cost within 1e-9
// relative, each from the baseline.
func TestWarmSingleExclusionsAgreeWithSolve(t *testing.T) {
	for _, name := range []string{"paper5", "ieee14", "synth30"} {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Grid
		ws := NewWarmSolver(g)
		base, err := ws.Baseline()
		if err != nil {
			t.Fatal(err)
		}
		reopts := 0
		for _, id := range g.InServiceLines() {
			topo := g.TrueTopology().WithExcluded(id)
			loads := shiftedLoads(g, base, id)
			got, err := ws.SolveTopology(topo, loads)
			want, wantErr := Solve(g, topo, loads)
			if errors.Is(err, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) {
				t.Fatalf("%s without line %d: warm %v, cold %v", name, id, err, wantErr)
			}
			if err != nil && !errors.Is(err, ErrInfeasible) || wantErr != nil && !errors.Is(wantErr, ErrInfeasible) {
				t.Fatalf("%s without line %d: warm %v, cold %v", name, id, err, wantErr)
			}
			if g.Connected(topo) {
				reopts++
			}
			if err != nil {
				continue
			}
			if d := math.Abs(got.Cost - want.Cost); d > 1e-9*math.Abs(want.Cost) {
				t.Fatalf("%s without line %d: warm cost %v, cold %v", name, id, got.Cost, want.Cost)
			}
			if got.Flows[id-1] != 0 {
				t.Fatalf("%s without line %d: the removed line carries %v", name, id, got.Flows[id-1])
			}
		}
		if st := ws.Stats(); st.Solves != reopts || st.Reopts != reopts {
			t.Fatalf("%s: stats %+v, want %d re-optimizations", name, st, reopts)
		}
	}
}
