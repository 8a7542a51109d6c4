package opf

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/grid"
	"gridattack/internal/smt"
)

// smtGoldenFile pins the SMT OPF model (EncodeBase plus the Eq. 35 cost
// cap): for every entry the verdict, the solver's size and effort counters
// and, on Sat, the exact rational value of every model variable. A change to
// how the model is built may only leave every clause, atom and search step as
// it was, so any difference here is a behaviour change.
//
// To regenerate after a deliberate change of the encoding, delete the file
// and run TestSMTModelGoldenDigests -v on amd64: it fails and logs the new
// listing, one "name digest" line per entry.
const smtGoldenFile = "testdata/smt_golden.txt"

// smtResult digests one solver verdict: the error or result, every size and
// effort counter of the solver (the arithmetic ones see the order in which
// rows and bounds reach the simplex), and on Sat the exact value of every
// variable of the model.
func (d *goldenDigest) smtResult(s *smt.Solver, v *Vars, res smt.Result, err error) {
	if err != nil {
		d.err(err)
		return
	}
	d.int(int(res))
	st := s.Stats()
	for _, c := range []int64{
		int64(st.SATVars), int64(st.Clauses), int64(st.RealVars),
		st.Decisions, st.Conflicts, st.Propagations, st.TheoryProps, st.Pivots,
		st.Rat64FastOps, st.Rat64BigOps, st.RowPoolReuse,
	} {
		d.int(int(c))
	}
	if res != smt.Sat {
		return
	}
	for _, vars := range [][]int{v.Gen, v.Flow, v.Theta} {
		d.int(len(vars))
		for _, x := range vars {
			d.buf = append(d.buf, s.RealValue(x).RatString()...)
			d.buf = append(d.buf, 0)
		}
	}
}

// smtGoldenTopology is one topology and load vector of the corpus.
type smtGoldenTopology struct {
	name  string
	topo  grid.Topology
	loads []float64 // nil = the grid's own loads
}

// smtGoldenTopologies returns the true topology, every single-line
// exclusion, and the case's isolated-bus topologies. An isolated bus with
// no generator sums no variable in its nodal balance row: with a load that
// row is the constant comparison 0 = load, without one it is 0 = 0.
func smtGoldenTopologies(name string, g *grid.Grid) []smtGoldenTopology {
	out := []smtGoldenTopology{{name: "true", topo: g.TrueTopology()}}
	for _, l := range g.InServiceLines() {
		out = append(out, smtGoldenTopology{name: fmt.Sprintf("excl%d", l), topo: g.TrueTopology().WithExcluded(l)})
	}
	switch name {
	case "paper5":
		// Lines 4, 6 and 7 are bus 4's only lines.
		iso := g.TrueTopology().WithExcluded(4).WithExcluded(6).WithExcluded(7)
		noLoad := g.LoadVector()
		noLoad[3] = 0
		out = append(out,
			smtGoldenTopology{name: "isolate4", topo: iso},
			smtGoldenTopology{name: "isolate4/noload", topo: iso, loads: noLoad})
	case "ieee14":
		// Bus 7 (no load, no generator) through lines 8, 14 and 15, which
		// islands bus 8 with its generator; bus 14 (loaded) through 17, 20.
		out = append(out,
			smtGoldenTopology{name: "isolate7", topo: g.TrueTopology().WithExcluded(8).WithExcluded(14).WithExcluded(15)},
			smtGoldenTopology{name: "isolate14", topo: g.TrueTopology().WithExcluded(17).WithExcluded(20)})
	}
	return out
}

// smtGoldenCorpus computes every entry: per case, topology and cap factor
// (1.05 and 0.999 times the attack-free optimum) one FeasibleWithin query
// and, on paper5 and ieee14, one FeasibilityModel answering the analyzer's
// cap pair, ten times the cap and then the cap itself. Short mode skips
// synth30, whose exact queries take about half a second each; every other
// entry is the same in both modes.
func smtGoldenCorpus(t *testing.T) []goldenEntry {
	t.Helper()
	var out []goldenEntry
	for _, name := range []string{"paper5", "ieee14", "synth30"} {
		if testing.Short() && name == "synth30" {
			continue
		}
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Grid
		base, err := Solve(g, g.TrueTopology(), nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		for _, tc := range smtGoldenTopologies(name, g) {
			for _, factor := range []float64{1.05, 0.999} {
				costCap := base.Cost * factor
				prefix := fmt.Sprintf("%s/%s/cap%g", name, tc.name, factor)

				// FeasibleWithin's query, on a solver kept to read its counters.
				var within goldenDigest
				s := smt.NewSolver()
				v, err := Encode(s, g, tc.topo, tc.loads, costCap)
				if err != nil {
					t.Fatalf("%s: %v", prefix, err)
				}
				res, err := s.Check()
				within.smtResult(s, v, res, err)
				out = append(out, goldenEntry{prefix + "/within", within.sum()})
				if name == "synth30" {
					continue
				}

				var pair goldenDigest
				fm, err := NewFeasibilityModel(g, tc.topo, tc.loads, 0, 0)
				if err != nil {
					t.Fatalf("%s: %v", prefix, err)
				}
				for _, q := range []float64{costCap * 10, costCap} {
					below, err := fm.CheckCostBelow(context.Background(), q)
					res := smt.Unsat
					if below {
						res = smt.Sat
					}
					pair.smtResult(fm.s, fm.vars, res, err)
				}
				out = append(out, goldenEntry{prefix + "/model", pair.sum()})
			}
		}
	}
	return out
}

// TestSMTModelGoldenDigests: every query of the corpus — the paper's
// stand-alone OPF model on paper5, ieee14 and synth30 and the analyzer's
// reusable feasibility model on the first two, under every single-line
// exclusion and a few isolated buses — reaches the recorded verdict, the
// recorded solver size and effort, and the recorded exact model.
func TestSMTModelGoldenDigests(t *testing.T) {
	// The capacities and the cost caps come from float power flows and LP
	// optima, whose bits depend on multiply-add fusion (see TestLPGoldenDigests).
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	got := smtGoldenCorpus(t)
	want := readGoldenFile(t, smtGoldenFile)
	if want == nil {
		var b strings.Builder
		for _, e := range got {
			fmt.Fprintf(&b, "%s %s\n", e.name, e.digest)
		}
		t.Fatalf("%s missing; recorded listing:\n%s", smtGoldenFile, b.String())
	}
	var differ []string
	for _, e := range got {
		w, ok := want[e.name]
		if !ok {
			t.Fatalf("entry %s missing from %s", e.name, smtGoldenFile)
		}
		if w != e.digest {
			differ = append(differ, e.name)
		}
	}
	if len(differ) > 0 {
		t.Fatalf("%d of %d entries differ: %s", len(differ), len(got), strings.Join(differ, " "))
	}
	if !testing.Short() && len(got) != len(want) {
		t.Fatalf("corpus has %d entries, %s has %d", len(got), smtGoldenFile, len(want))
	}
}
