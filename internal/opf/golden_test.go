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

// goldenAngleEntries solves every (topology, loads) pair of one system
// through opf.Solve. Each entry digests the LP solution of the identical
// problem next to the OPF result, since opf.Solve hides the raw LP fields.
func goldenAngleEntries(t *testing.T, name string, seed int64, topoCount, loadCount int) []goldenEntry {
	t.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Grid
	rng := rand.New(rand.NewSource(seed))
	topos, topoNames := goldenTopologies(g, rng, topoCount)
	var out []goldenEntry
	for ti, topo := range topos {
		for li, loads := range goldenLoads(g, rng, loadCount) {
			prefix := fmt.Sprintf("%s/%s/load%d", name, topoNames[ti], li)

			var cold goldenDigest
			p, _, err := buildAngleLP(g, topo, loads)
			if err != nil {
				t.Fatalf("%s: %v", prefix, err)
			}
			cold.lp(p.Solve())
			cold.opf(Solve(g, topo, loads))
			out = append(out, goldenEntry{prefix + "/solve", cold.sum()})
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

	var km goldenDigest
	km.lp(kleeMinty(12).Solve())
	out = append(out, goldenEntry{"kleeminty12", km.sum()})
	return out
}

// readGolden returns the recorded digests by entry name, or nil when the
// golden file does not exist.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
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
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = digest
	}
	return want
}

// TestLPGoldenDigests: every LP result of the corpus — angle-formulation
// OPF on five systems, shift-factor OPF under single-line outages, and a
// Klee-Minty cube that forces Bland's rule — matches the recorded IEEE-754
// bits exactly.
func TestLPGoldenDigests(t *testing.T) {
	// Go fuses a*b+c into one rounding on arm64, ppc64, riscv64, s390x and
	// loong64 but never on amd64, where the digests were recorded.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	got := goldenCorpus(t)
	want := readGolden(t)
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
