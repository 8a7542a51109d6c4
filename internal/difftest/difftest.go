package difftest

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
)

// Layer names accepted by Config.Layers.
const (
	LayerSMT    = "smt"
	LayerLadder = "ladder"
	LayerOPF    = "opf"
	LayerWLS    = "wls"
	LayerDist   = "dist"
	LayerSparse = "sparse"
	LayerMeta   = "meta"
	LayerCore   = "core"
)

// AllLayers returns every layer name in execution order.
func AllLayers() []string {
	return []string{LayerSMT, LayerLadder, LayerOPF, LayerWLS, LayerDist, LayerSparse, LayerMeta, LayerCore}
}

// Config parameterizes one harness run.
type Config struct {
	// N is the number of generated cases per layer sweep.
	N int
	// Seed is the master seed; case i derives its own deterministic
	// sub-seed, so a reported case seed reproduces in isolation.
	Seed int64
	// Layers restricts the checked layers (nil = all).
	Layers []string
	// Short skips the most expensive checks (the Fig. 2 loop property runs
	// on every 4th case instead of every case).
	Short bool
	// Shrink minimizes each failing system before reporting it.
	Shrink bool
	// ExactSeed uses Seed verbatim as every case's seed instead of deriving
	// per-case sub-seeds. Combine with N=1 to replay one reported case.
	ExactSeed bool
	// FixtureDir, when non-empty, receives one fixture file per (shrunk)
	// failing system.
	FixtureDir string
	// Out receives progress output (nil = discard).
	Out io.Writer
}

// Discrepancy is one cross-check failure.
type Discrepancy struct {
	Layer    string
	CaseSeed int64
	Detail   string
	// System is the failing system (shrunk when shrinking is enabled); nil
	// for the grid-free SMT formula layer.
	System *System
	// Fixture is the path the failing system was written to, when any.
	Fixture string
}

func (d Discrepancy) String() string {
	s := fmt.Sprintf("[%s] seed=%d: %s", d.Layer, d.CaseSeed, d.Detail)
	if d.Fixture != "" {
		s += " (fixture: " + d.Fixture + ")"
	}
	return s
}

// Summary is the outcome of a harness run.
type Summary struct {
	Cases         int
	ChecksRun     int
	Discrepancies []Discrepancy
}

// OK reports whether the run found no discrepancies.
func (s *Summary) OK() bool { return len(s.Discrepancies) == 0 }

// caseSeed derives the deterministic sub-seed of case i under master seed
// (splitmix64 over the pair, so neighboring masters do not share streams).
func caseSeed(master int64, i int) int64 {
	z := uint64(master)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// systemCheck is one grid-level layer: it returns a discrepancy detail (or
// "") for a system, using rng for any randomized sub-choices.
type systemCheck func(sys *System, rng *rand.Rand) string

// Run executes the harness and returns the summary. Only I/O errors (e.g.
// an unwritable fixture directory) are returned as errors; discrepancies
// are data.
func Run(cfg Config) (*Summary, error) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	n := cfg.N
	if n <= 0 {
		n = 50
	}
	layerOn := make(map[string]bool)
	if len(cfg.Layers) == 0 {
		for _, l := range AllLayers() {
			layerOn[l] = true
		}
	} else {
		for _, l := range cfg.Layers {
			l = strings.TrimSpace(strings.ToLower(l))
			if l == "" {
				continue
			}
			found := false
			for _, known := range AllLayers() {
				if l == known {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("difftest: unknown layer %q (have %s)", l, strings.Join(AllLayers(), ", "))
			}
			layerOn[l] = true
		}
	}

	sum := &Summary{}
	grids := map[string]systemCheck{
		LayerOPF:    func(sys *System, _ *rand.Rand) string { return checkOPF(sys) },
		LayerWLS:    checkWLS,
		LayerDist:   func(sys *System, _ *rand.Rand) string { return checkDist(sys) },
		LayerSparse: checkSparse,
	}
	metas := map[string]systemCheck{
		"meta/permutation":   propPermutation,
		"meta/cost-scale":    propCostScale,
		"meta/redundant-wls": propRedundantWLS,
	}

	for i := 0; i < n; i++ {
		cs := caseSeed(cfg.Seed, i)
		if cfg.ExactSeed {
			cs = cfg.Seed
		}
		rng := rand.New(rand.NewSource(cs))

		if layerOn[LayerSMT] {
			sum.ChecksRun++
			if detail := checkSMT(rng); detail != "" {
				sum.Discrepancies = append(sum.Discrepancies, Discrepancy{Layer: LayerSMT, CaseSeed: cs, Detail: detail})
				fmt.Fprintf(out, "FAIL [smt] seed=%d: %s\n", cs, detail)
			}
		}

		needGrid := layerOn[LayerOPF] || layerOn[LayerWLS] || layerOn[LayerDist] || layerOn[LayerSparse] || layerOn[LayerMeta] || layerOn[LayerCore] || layerOn[LayerLadder]
		if !needGrid {
			sum.Cases++
			continue
		}
		sys := GenSystem(rng)
		sum.Cases++

		runCheck := func(layer string, chk systemCheck) error {
			sum.ChecksRun++
			detail := chk(sys, rand.New(rand.NewSource(cs+1)))
			if detail == "" {
				return nil
			}
			d := Discrepancy{Layer: layer, CaseSeed: cs, Detail: detail, System: sys}
			if cfg.Shrink {
				d.System = Shrink(sys, func(cand *System) bool {
					return chk(cand, rand.New(rand.NewSource(cs+1))) != ""
				})
				d.Detail = chk(d.System, rand.New(rand.NewSource(cs+1)))
			}
			if cfg.FixtureDir != "" {
				path, err := WriteFixture(cfg.FixtureDir, layer, cs, d.Detail, d.System)
				if err != nil {
					return err
				}
				d.Fixture = path
			}
			sum.Discrepancies = append(sum.Discrepancies, d)
			fmt.Fprintf(out, "FAIL [%s] seed=%d: %s\n", layer, cs, d.Detail)
			return nil
		}

		for _, layer := range []string{LayerOPF, LayerWLS, LayerDist, LayerSparse} {
			if layerOn[layer] {
				if err := runCheck(layer, grids[layer]); err != nil {
					return nil, err
				}
			}
		}
		if layerOn[LayerMeta] {
			names := make([]string, 0, len(metas))
			for name := range metas {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if err := runCheck(name, metas[name]); err != nil {
					return nil, err
				}
			}
		}
		// The Fig. 2 loop property is by far the most expensive check: in
		// short mode it runs on a quarter of the cases, and always only on
		// the smaller systems.
		if layerOn[LayerCore] && sys.Grid.NumBuses() <= 6 && (!cfg.Short || i%4 == 0) {
			if err := runCheck(LayerCore, propAttackMonotone); err != nil {
				return nil, err
			}
		}
		// The ladder A/B reruns the Fig. 2 loop several times per system
		// (per-target Runs, the ladder, the certified ladder); like the
		// core property it is rationed to the
		// smaller systems (offset from the core cases in short mode so both
		// properties still run).
		if layerOn[LayerLadder] && sys.Grid.NumBuses() <= 6 && (!cfg.Short || i%4 == 2) {
			if err := runCheck(LayerLadder, checkLadderAB); err != nil {
				return nil, err
			}
		}

		if (i+1)%50 == 0 {
			fmt.Fprintf(out, "... %d/%d cases, %d checks, %d discrepancies\n", i+1, n, sum.ChecksRun, len(sum.Discrepancies))
		}
	}
	return sum, nil
}
