package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
)

// searchGoldenFile pins the search trajectory of the attack and verification
// solvers on a fixed corpus. Each line holds two digests of one analysis:
//
//   - verdict: Found, Exhausted, Canceled, Iterations, the vector and the
//     attacked-cost bits;
//   - effort: the eight SolverStats counters that count the search's steps.
//
// A speed change to the SMT core must leave both where they were, so any
// difference is a change of search, not of speed. A change that stops
// running some SMT queries moves only the effort digests of the analyses
// that ran them; every verdict digest stays.
//
// To regenerate after a deliberate change of search, delete the file and
// run TestSearchGoldenDigests -v on amd64: it fails and logs the new
// listing, one "name verdict effort" line per entry.
const searchGoldenFile = "testdata/search_golden.txt"

// searchDigest accumulates the bits of one corpus entry.
type searchDigest struct{ buf []byte }

func (d *searchDigest) int(v int64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }

func (d *searchDigest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *searchDigest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *searchDigest) ints(vs []int) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(v))
	}
}

func (d *searchDigest) floats(vs []float64) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.float(v)
	}
}

func (d *searchDigest) vector(v *attack.Vector) {
	d.bool(v != nil)
	if v == nil {
		return
	}
	d.ints(v.ExcludedLines)
	d.ints(v.IncludedLines)
	d.ints(v.AlteredMeasurements)
	d.ints(v.CompromisedBuses)
	d.ints(v.InfectedStates)
	d.floats(v.DeltaTheta)
	d.floats(v.DeltaFlow)
	d.floats(v.DeltaConsumption)
	d.floats(v.ObservedLoads)
	d.ints(v.MappedTopology.Lines())
}

func (d *searchDigest) verdict(rep *Report) {
	d.bool(rep.Found)
	d.bool(rep.Exhausted)
	d.bool(rep.Canceled)
	d.int(int64(rep.Iterations))
	d.vector(rep.Vector)
	d.float(rep.AttackedCost)
}

func (d *searchDigest) effort(rep *Report) {
	st := rep.SolverStats
	for _, v := range []int64{
		st.Decisions, st.Conflicts, st.Propagations, st.TheoryProps,
		st.Pivots, int64(st.Clauses), st.Rat64FastOps, st.Rat64BigOps,
	} {
		d.int(v)
	}
}

func (d *searchDigest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

// searchEntry is one named analysis of the corpus and its two digests.
type searchEntry struct{ name, verdict, effort string }

func newSearchEntry(name string, rep *Report) searchEntry {
	var v, e searchDigest
	v.verdict(rep)
	e.effort(rep)
	return searchEntry{name, v.sum(), e.sum()}
}

// searchAnalyzer configures scenario s (seed 100*s+1) of a registry system
// with the limits of gridbench's analyze workloads, without their wall-clock
// timeout: a timed-out query would make the pin depend on the machine.
func searchAnalyzer(t *testing.T, system string, s int, states bool, verify VerifyMode) Analyzer {
	t.Helper()
	c, err := cases.ByName(system)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(c, ScenarioConfig{Seed: int64(100*s + 1), States: states})
	a := *sc.Analyzer(1.5)
	a.MaxIterations = 6
	a.MaxConflicts = 2_000_000
	a.Verify = verify
	return a
}

// searchCorpus computes every entry of the corpus; short mode skips
// synth118, and every other entry is the same in both modes.
func searchCorpus(t *testing.T) []searchEntry {
	var out []searchEntry
	run := func(name string, a Analyzer) {
		rep, err := a.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, newSearchEntry(name, rep))
	}
	for _, system := range []string{"paper5", "ieee14", "synth30", "synth57", "synth118"} {
		if testing.Short() && system == "synth118" {
			continue
		}
		for s := 0; s < 3; s++ {
			run(fmt.Sprintf("lp/%s/s%d", system, s), searchAnalyzer(t, system, s, false, VerifyLP))
		}
	}
	for _, system := range []string{"paper5", "ieee14"} {
		for s := 0; s < 3; s++ {
			run(fmt.Sprintf("smt-states/%s/s%d", system, s), searchAnalyzer(t, system, s, true, VerifySMT))
		}
	}

	targets := []float64{0.5, 1.5, 3}
	a := searchAnalyzer(t, "ieee14", 0, false, VerifySMT)
	reps, err := a.RunLadder(targets)
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	for i, rep := range reps {
		out = append(out, newSearchEntry(fmt.Sprintf("ladder/ieee14/s0/t%g", targets[i]), rep))
	}
	return out
}

// readSearchGolden returns the recorded entries by name, or nil when the
// golden file does not exist.
func readSearchGolden(t *testing.T) map[string]searchEntry {
	t.Helper()
	data, err := os.ReadFile(searchGoldenFile)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]searchEntry{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", searchGoldenFile, line)
		}
		want[f[0]] = searchEntry{f[0], f[1], f[2]}
	}
	return want
}

// TestSearchGoldenDigests: every analysis of the corpus — the analyze-lp
// benchmark's problems under LP verification, state infection under SMT
// verification, and a ladder — reaches the recorded verdict, vector and
// attacked cost with the recorded SAT and simplex effort. Every differing
// digest is reported, verdicts and effort separately. Certification
// (GRIDATTACK_CERTIFY) runs the same searches, so the pin holds under it too.
func TestSearchGoldenDigests(t *testing.T) {
	// Go fuses a*b+c into one rounding on arm64, ppc64, riscv64, s390x and
	// loong64 but never on amd64, where the digests were recorded.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	got := searchCorpus(t)
	want := readSearchGolden(t)
	if want == nil {
		var b strings.Builder
		for _, e := range got {
			fmt.Fprintf(&b, "%s %s %s\n", e.name, e.verdict, e.effort)
		}
		t.Fatalf("%s missing; recorded listing:\n%s", searchGoldenFile, b.String())
	}
	for _, e := range got {
		w, ok := want[e.name]
		if !ok {
			t.Fatalf("entry %s missing from %s", e.name, searchGoldenFile)
		}
		if w.verdict != e.verdict {
			t.Errorf("%s: verdict digest %s, want %s", e.name, e.verdict, w.verdict)
		}
		if w.effort != e.effort {
			t.Errorf("%s: effort digest %s, want %s", e.name, e.effort, w.effort)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Fatalf("corpus has %d entries, %s has %d", len(got), searchGoldenFile, len(want))
	}
}
