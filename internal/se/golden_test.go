package se

import (
	"bufio"
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
	"strings"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/measure"
)

// goldenFile pins the IEEE-754 bits of Estimate on the two largest systems
// the fleet and the scale sweep estimate: the angles, the residual, and the
// suspect measurement with its normalized residual. The WLS arithmetic may
// only change in ways that leave every value bit for bit, so any difference
// here is a behaviour change.
//
// To regenerate after a deliberate change of results, delete the file and
// run TestEstimateGoldenDigests -v on amd64: it fails and logs the new
// listing, one "name digest" line per entry.
const goldenFile = "testdata/estimate_golden.txt"

// estimateDigest hashes the pinned fields of one estimate.
func estimateDigest(res *Result) string {
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(uint64(len(res.Theta)))
	for _, v := range res.Theta {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(res.Residual))
	put(uint64(res.SuspectMeasurement))
	put(math.Float64bits(res.SuspectResidual))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestEstimateGoldenDigests estimates each system twice: from exact
// telemetry of a power flow, and from the same telemetry with seeded
// Gaussian noise and one gross error. EstimatePartial on the complete
// vector must reproduce Estimate's bits, as every clean fleet cycle relies
// on.
func TestEstimateGoldenDigests(t *testing.T) {
	// Go fuses a*b+c into one rounding on arm64, ppc64, riscv64, s390x and
	// loong64 but never on amd64, where the digests were recorded.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	var got [][2]string
	for _, name := range []string{"synth118", "synth300"} {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, plan := c.Grid, c.Plan
		topo := g.TrueTopology()
		gen := make([]float64, g.NumBuses())
		gen[g.RefBus-1] = g.TotalLoad()
		pf, err := g.SolvePowerFlow(topo, gen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact, err := plan.FromPowerFlow(g, pf, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gross, err := plan.FromPowerFlow(g, pf, 0.002, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gross.Values[plan.ForwardIndex(g.NumLines()/2)] += 0.5
		for _, tc := range []struct {
			label string
			z     *measure.Vector
		}{{"exact", exact}, {"gross", gross}} {
			est := NewEstimator(g, plan)
			res, err := est.Estimate(topo, tc.z)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.label, err)
			}
			d := estimateDigest(res)
			partial, err := est.EstimatePartial(topo, tc.z, nil)
			if err != nil {
				t.Fatalf("%s/%s EstimatePartial: %v", name, tc.label, err)
			}
			if pd := estimateDigest(partial); pd != d || partial.Degraded {
				t.Errorf("%s/%s: EstimatePartial on complete telemetry digests %s (degraded %v), Estimate %s",
					name, tc.label, pd, partial.Degraded, d)
			}
			got = append(got, [2]string{name + "/" + tc.label, d})
		}
	}

	want := map[string]string{}
	f, err := os.Open(goldenFile)
	if errors.Is(err, fs.ErrNotExist) {
		var b strings.Builder
		for _, e := range got {
			fmt.Fprintf(&b, "%s %s\n", e[0], e[1])
		}
		t.Fatalf("%s missing; recorded listing:\n%s", goldenFile, b.String())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, the corpus %d", goldenFile, len(want), len(got))
	}
	for _, e := range got {
		if w := want[e[0]]; w != e[1] {
			t.Errorf("%s: digest %s, want %s", e[0], e[1], w)
		}
	}
}
