// Command difftest runs the differential & metamorphic verification harness
// (internal/difftest): it generates random well-formed systems and
// cross-validates every numeric layer — SMT verdicts, DC-OPF costs, WLS
// estimates, LODF/LCDF predictions, the Fig. 2 impact loop and its Fig. 4(a)
// threshold ladder — against independent exact-arithmetic oracles,
// metamorphic symmetries and independent per-target runs.
//
// Usage:
//
//	difftest -n 200 -seed 1                # full sweep, all layers
//	difftest -n 50 -short                  # CI fast lane
//	difftest -layers smt,opf -n 500        # restrict layers
//	difftest -layers ladder -n 50          # ladder vs per-target runs
//	difftest -n 1 -seed-exact 12345 -layers dist
//	                                       # replay one reported case seed
//	difftest -shrink -fixtures testdata/difftest
//	                                       # minimize failures into fixtures
//
// Exit status: 0 = no discrepancies, 1 = discrepancies found, 2 = bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gridattack/internal/difftest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("difftest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 200, "number of generated cases")
		seed      = fs.Int64("seed", 1, "master seed (each case derives a sub-seed)")
		seedExact = fs.Int64("seed-exact", 0, "replay this exact case seed verbatim (use with -n 1)")
		layers    = fs.String("layers", "", "comma-separated layer subset ("+strings.Join(difftest.AllLayers(), ",")+"); empty = all")
		short     = fs.Bool("short", false, "skip the most expensive checks (CI fast lane)")
		shrink    = fs.Bool("shrink", false, "minimize each failing system before reporting")
		fixtures  = fs.String("fixtures", "", "directory to write failing systems to as fixtures")
		quiet     = fs.Bool("q", false, "suppress progress output (failures still print)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := difftest.Config{
		N:          *n,
		Seed:       *seed,
		Short:      *short,
		Shrink:     *shrink,
		FixtureDir: *fixtures,
		Out:        stdout,
	}
	if *quiet {
		cfg.Out = io.Discard
	}
	if *seedExact != 0 {
		cfg.Seed = *seedExact
		cfg.ExactSeed = true
	}
	if *layers != "" {
		cfg.Layers = strings.Split(*layers, ",")
	}
	sum, err := difftest.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "difftest: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "difftest: %d cases, %d checks, %d discrepancies (seed %d)\n",
		sum.Cases, sum.ChecksRun, len(sum.Discrepancies), cfg.Seed)
	for _, d := range sum.Discrepancies {
		fmt.Fprintf(stdout, "  %s\n", d)
	}
	if !sum.OK() {
		return 1
	}
	return 0
}
