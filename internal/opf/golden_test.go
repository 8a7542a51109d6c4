package opf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/dist"
	"gridattack/internal/grid"
	"gridattack/internal/lp"
)

// goldenFile pins the exact IEEE-754 bits of every LP result in the corpus
// below. The simplex kernel may only get faster by skipping arithmetic that
// cannot change a value, so any difference here is a behaviour change.
//
// To regenerate after a deliberate change of results, delete the file and
// run TestLPGoldenDigests -v on amd64: it fails and logs the new listing,
// one "name digest" line per entry.
const goldenFile = "testdata/lp_golden.txt"

// goldenDigest accumulates the bits of one corpus entry.
type goldenDigest struct{ buf []byte }

func (d *goldenDigest) int(v int) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }

func (d *goldenDigest) float(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

func (d *goldenDigest) floats(vs []float64) {
	d.int(len(vs))
	for _, v := range vs {
		d.float(v)
	}
}

func (d *goldenDigest) err(err error) {
	d.buf = append(d.buf, "err:"...)
	d.buf = append(d.buf, err.Error()...)
	d.buf = append(d.buf, 0)
}

func (d *goldenDigest) lp(sol *lp.Solution, err error) {
	if err != nil {
		d.err(err)
		return
	}
	d.int(int(sol.Status))
	d.int(sol.Pivots)
	d.int(0) // was the retired warm-start flag; kept so recorded digests stay valid
	d.float(sol.Objective)
	d.floats(sol.X)
}

// basis digests the certificate lpcert checks: an Optimal solution's final
// basis and the bound side of each of p's n columns (false for basic ones).
func (d *goldenDigest) basis(n int, sol *lp.Solution, err error) {
	if err != nil {
		d.err(err)
		return
	}
	d.int(int(sol.Status))
	if sol.Status != lp.Optimal {
		return
	}
	d.int(len(sol.Basis))
	for _, b := range sol.Basis {
		d.int(b)
	}
	for j := 0; j < n; j++ {
		if sol.AtUpper(j) {
			d.int(j)
		}
	}
}

// numColumns is the simplex's column count for p: structural, one slack per
// inequality row, one artificial per row.
func numColumns(p *lp.Problem) int {
	n := p.NumVariables() + p.NumConstraints()
	for i := 0; i < p.NumConstraints(); i++ {
		if _, sense, _ := p.Constraint(i); sense != lp.EQ {
			n++
		}
	}
	return n
}

func (d *goldenDigest) opf(sol *Solution, err error) {
	if err != nil {
		d.err(err)
		return
	}
	d.float(sol.Cost)
	d.floats(sol.Dispatch)
	d.floats(sol.Flows)
	d.floats(sol.Theta)
}

func (d *goldenDigest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

// goldenEntry is one named digest of the corpus.
type goldenEntry struct{ name, digest string }

// goldenTopologies returns the true topology followed by count seeded
// exclusions of 1-3 lines that keep the network connected and can still
// serve the grid's own loads, so most entries pin a full optimal point.
func goldenTopologies(g *grid.Grid, rng *rand.Rand, count int) ([]grid.Topology, []string) {
	topos := []grid.Topology{g.TrueTopology()}
	names := []string{"true"}
	lines := g.InServiceLines()
	for len(topos) <= count {
		k := 1 + rng.Intn(3)
		t := g.TrueTopology()
		var excl []string
		for _, i := range rng.Perm(len(lines))[:k] {
			excl = append(excl, strconv.Itoa(lines[i]))
			t = t.WithExcluded(lines[i])
		}
		if _, err := Solve(g, t, nil); err != nil {
			continue
		}
		topos = append(topos, t)
		names = append(names, "excl"+strings.Join(excl, ","))
	}
	return topos, names
}

// goldenLoads returns the grid's loads followed by count seeded +/-5%
// perturbations of them.
func goldenLoads(g *grid.Grid, rng *rand.Rand, count int) [][]float64 {
	base := g.LoadVector()
	out := [][]float64{base}
	for k := 0; k < count; k++ {
		l := make([]float64, len(base))
		for i, v := range base {
			l[i] = v * (1 + 0.05*(2*rng.Float64()-1))
		}
		out = append(out, l)
	}
	return out
}

// solveDirect solves p with Solve and requires SolveBaseline, which keeps
// B^-1 through phase 2, to give the same status, pivots, objective, X and
// basis bits.
func solveDirect(t *testing.T, name string, p *lp.Problem) (*lp.Solution, error) {
	t.Helper()
	sol, err := p.Solve()
	kept, _, keptErr := p.SolveBaseline()
	var a, b goldenDigest
	a.lp(sol, err)
	a.basis(numColumns(p), sol, err)
	b.lp(kept, keptErr)
	b.basis(numColumns(p), kept, keptErr)
	if a.sum() != b.sum() {
		t.Errorf("%s: SolveBaseline differs from Solve", name)
	}
	return sol, err
}

// goldenAngleEntries solves every (topology, loads) pair of one system
// through opf.Solve. Each /solve entry digests the LP solution of the
// identical problem next to the OPF result, since opf.Solve hides the raw LP
// fields; each /basis entry digests that LP's final basis. Each /reopt entry
// of a reduced topology digests its re-optimization from the system's
// true-topology WarmSolver: the OPF result and the pivots it took.
func goldenAngleEntries(t *testing.T, name string, seed int64, topoCount, loadCount int) []goldenEntry {
	t.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Grid
	rng := rand.New(rand.NewSource(seed))
	topos, topoNames := goldenTopologies(g, rng, topoCount)
	ws := NewWarmSolver(g)
	var out []goldenEntry
	for ti, topo := range topos {
		for li, loads := range goldenLoads(g, rng, loadCount) {
			prefix := fmt.Sprintf("%s/%s/load%d", name, topoNames[ti], li)

			var cold goldenDigest
			p, _, err := buildAngleLP(g, topo, loads)
			if err != nil {
				t.Fatalf("%s: %v", prefix, err)
			}
			sol, err := solveDirect(t, prefix, p)
			cold.lp(sol, err)
			cold.opf(Solve(g, topo, loads))
			out = append(out, goldenEntry{prefix + "/solve", cold.sum()})
			var basis goldenDigest
			basis.basis(numColumns(p), sol, err)
			out = append(out, goldenEntry{prefix + "/basis", basis.sum()})
			if ti == 0 {
				continue
			}
			var reopt goldenDigest
			pivots := ws.Stats().Pivots
			reopt.opf(ws.SolveTopology(topo, loads))
			reopt.int(ws.Stats().Pivots - pivots)
			out = append(out, goldenEntry{prefix + "/reopt", reopt.sum()})
		}
	}
	return out
}

// kleeMinty builds the Klee-Minty cube of dimension n, as the lp package's
// TestKleeMintyBland does: Dantzig's rule needs exponentially many pivots
// on it, so a 12-dimensional cube reaches Bland's rule.
func kleeMinty(n int) *lp.Problem {
	p := lp.NewProblem()
	for j := 0; j < n; j++ {
		p.AddVariable(0, math.Inf(1), -math.Ldexp(1, n-1-j), fmt.Sprintf("x%d", j))
	}
	for i := 0; i < n; i++ {
		terms := []lp.Term{{Var: i, Coeff: 1}}
		for j := 0; j < i; j++ {
			terms = append(terms, lp.Term{Var: j, Coeff: math.Ldexp(1, i-j+1)})
		}
		p.AddConstraint(terms, lp.LE, math.Pow(5, float64(i+1)))
	}
	return p
}

// goldenCorpus computes every entry of the corpus; short mode skips
// synth118, and every other entry is the same in both modes.
func goldenCorpus(t *testing.T) []goldenEntry {
	var out []goldenEntry
	for i, name := range cases.EvaluationOrder() {
		if testing.Short() && name == "synth118" {
			continue
		}
		out = append(out, goldenAngleEntries(t, name, int64(i+1), 3, 3)...)
	}

	g := cases.IEEE14Bus()
	fac, err := dist.New(g, g.TrueTopology())
	if err != nil {
		t.Fatal(err)
	}
	// SolveShift builds its LP internally, so these entries digest the OPF
	// result alone.
	for outage := 0; outage <= g.NumLines(); outage++ {
		var d goldenDigest
		d.opf(SolveShift(g, fac, outage, nil))
		out = append(out, goldenEntry{fmt.Sprintf("ieee14/shift/outage%d", outage), d.sum()})
	}

	var km, kmBasis goldenDigest
	p := kleeMinty(12)
	sol, err := solveDirect(t, "kleeminty12", p)
	km.lp(sol, err)
	kmBasis.basis(numColumns(p), sol, err)
	out = append(out, goldenEntry{"kleeminty12", km.sum()}, goldenEntry{"kleeminty12/basis", kmBasis.sum()})

	for k := 0; k < randomLPs; k++ {
		var d goldenDigest
		p := randomLP(rand.New(rand.NewSource(int64(k + 1))))
		sol, err := solveDirect(t, fmt.Sprintf("random/%02d", k), p)
		d.lp(sol, err)
		d.basis(numColumns(p), sol, err)
		out = append(out, goldenEntry{fmt.Sprintf("random/%02d", k), d.sum()})
	}
	return out
}

// randomLPs is the number of seeded random/NN entries in the corpus.
const randomLPs = 128

// randomLP builds a small LP that reaches the simplex branches the OPF
// corpus misses. Columns are boxed, one-sided, free or fixed; rows are EQ,
// LE and GE with integer data. Most rows pass through a seeded point that
// often sits where the simplex starts, so many artificials start at 0 and
// some stay basic at 0 into phase 2; duplicated equality rows add
// redundant ones. An occasional row that the point violates makes some LPs
// infeasible, and free or one-sided columns with a cost make some unbounded.
func randomLP(rng *rand.Rand) *lp.Problem {
	p := lp.NewProblem()
	nVars := 3 + rng.Intn(6)
	x0 := make([]float64, nVars)
	for j := range x0 {
		lo := float64(rng.Intn(5) - 2)
		hi := lo + float64(1+rng.Intn(3))
		start := lo // where the simplex places the column
		if math.Abs(hi) < math.Abs(lo) {
			start = hi
		}
		switch rng.Intn(5) {
		case 0:
			lo, start = math.Inf(-1), hi
		case 1:
			hi, start = math.Inf(1), lo
		case 2:
			lo, hi, start = math.Inf(-1), math.Inf(1), 0
		case 3:
			if rng.Intn(3) == 0 {
				hi, start = lo, lo
			}
		}
		x0[j] = start
		if rng.Intn(2) == 0 {
			x0[j] = math.Max(lo, math.Min(hi, start+float64(rng.Intn(3)-1)))
		}
		p.AddVariable(lo, hi, float64(rng.Intn(11)-5), fmt.Sprintf("x%d", j))
	}
	nRows := 2 + rng.Intn(6)
	for i := 0; i < nRows; i++ {
		var terms []lp.Term
		rhs := 0.0
		for j := 0; j < nVars; j++ {
			if rng.Intn(3) > 0 {
				c := float64(rng.Intn(9) - 4)
				terms = append(terms, lp.Term{Var: j, Coeff: c})
				rhs += c * x0[j]
			}
		}
		sense := []lp.Sense{lp.LE, lp.EQ, lp.GE}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			switch sense {
			case lp.LE:
				rhs += float64(1 + rng.Intn(3))
			case lp.GE:
				rhs -= float64(1 + rng.Intn(3))
			}
		}
		if rng.Intn(10) == 0 { // a row the seeded point violates
			rhs, sense = rhs+float64(1+rng.Intn(3)), lp.GE
		}
		p.AddConstraint(terms, sense, rhs)
		if sense == lp.EQ && rng.Intn(2) == 0 {
			p.AddConstraint(terms, sense, rhs)
		}
	}
	return p
}

// readGoldenFile returns the digests recorded in file by entry name, or nil
// when the file does not exist.
func readGoldenFile(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", file, line)
		}
		want[name] = digest
	}
	return want
}

// TestLPGoldenDigests: every LP result of the corpus — angle-formulation
// OPF on five systems, solved cold and re-optimized from the true
// topology's baseline, shift-factor OPF under single-line outages, a
// Klee-Minty cube that forces Bland's rule, and seeded random LPs — matches
// the recorded IEEE-754 bits exactly, and so does the final basis of every
// LP solved directly, whether or not the solve keeps B^-1.
func TestLPGoldenDigests(t *testing.T) {
	// Go fuses a*b+c into one rounding on arm64, ppc64, riscv64, s390x and
	// loong64 but never on amd64, where the digests were recorded.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	got := goldenCorpus(t)
	want := readGoldenFile(t, goldenFile)
	if want == nil {
		var b strings.Builder
		for _, e := range got {
			fmt.Fprintf(&b, "%s %s\n", e.name, e.digest)
		}
		t.Fatalf("%s missing; recorded listing:\n%s", goldenFile, b.String())
	}
	for _, e := range got {
		w, ok := want[e.name]
		if !ok {
			t.Fatalf("entry %s missing from %s", e.name, goldenFile)
		}
		if w != e.digest {
			t.Fatalf("first differing entry %s: digest %s, want %s", e.name, e.digest, w)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Fatalf("corpus has %d entries, %s has %d", len(got), goldenFile, len(want))
	}
}
