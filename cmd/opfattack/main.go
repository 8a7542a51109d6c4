// Command opfattack runs the paper's impact-analysis framework on an input
// file in the Table II/III text format and writes the verification result
// (sat with the attack vector, or unsat) to an output file — the workflow of
// paper Sec. III-F.
//
// Usage:
//
//	opfattack -input case.txt [-output result.txt] [-states] [-target 3]
//	          [-verify lp|smt|shift] [-max-iter 200] [-parallel 0]
//	          [-certify] [-budget conflicts=N,pivots=N,time=DUR]
//	          [-checkpoint run.journal] [-v]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -v prints the solver effort counters after the run: decisions, conflicts,
// boolean and theory propagations, simplex pivots, and the arithmetic-kernel
// split (hybrid-rational operations that stayed on the int64 fast path vs.
// big.Rat fallbacks). -cpuprofile/-memprofile write pprof profiles of the
// analysis for `go tool pprof`.
//
// With -checkpoint, every completed find–verify iteration is journaled
// (fsync'd, hash-chained) to the given file; re-running the same command
// after a crash or kill resumes at the first incomplete iteration and
// produces the same result as an uninterrupted run. With -budget, a run
// that exhausts its solver budget exits nonzero; re-running with a larger
// budget (and the same -checkpoint) continues where it stopped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gridattack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "opfattack:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("opfattack", flag.ContinueOnError)
	var (
		inputPath  = fs.String("input", "", "input file in the paper's text format (required)")
		outputPath = fs.String("output", "", "output file (default: stdout)")
		states     = fs.Bool("states", false, "allow UFDI state infection (paper Sec. III-D)")
		target     = fs.Float64("target", 0, "override the input's minimum cost increase (%)")
		verifyMode = fs.String("verify", "lp", "OPF verification backend: lp, smt, or shift")
		maxIter    = fs.Int("max-iter", 200, "maximum attack vectors to examine")
		operating  = fs.String("operating", "", "pre-attack generation dispatch as comma-separated per-bus values (default: the OPF optimum)")
		parallel   = fs.Int("parallel", 0, "worker goroutines for the analysis: 0 = all CPUs, 1 = sequential; verdicts are identical at every setting")
		certify    = fs.Bool("certify", false, "check an independent certificate for every SMT verdict before trusting it")
		budget     = fs.String("budget", "", "per-query solver budget as key=value pairs: conflicts=N, pivots=N, time=DURATION (e.g. conflicts=500000,time=30s)")
		checkpoint = fs.String("checkpoint", "", "journal file for crash-resumable analysis; rerunning the same configuration resumes where the previous run stopped")
		verbose    = fs.Bool("v", false, "print solver effort counters (pivots, propagations, arithmetic fast-path split, exact OPF fallbacks) after the run")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the analysis to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inputPath == "" {
		return errors.New("-input is required")
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "opfattack: -memprofile:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "opfattack: -memprofile:", err)
			}
		}()
	}
	f, err := os.Open(*inputPath)
	if err != nil {
		return err
	}
	defer f.Close()
	in, err := gridattack.ParseInput(f)
	if err != nil {
		return err
	}

	analyzer := &gridattack.Analyzer{
		Grid:                  in.Grid,
		Plan:                  in.Plan,
		Capability:            in.Capability,
		TargetIncreasePercent: in.MinIncreasePercent,
		MaxIterations:         *maxIter,
		Parallelism:           *parallel,
		Certify:               *certify,
		CheckpointPath:        *checkpoint,
	}
	if *budget != "" {
		conflicts, pivots, timeout, err := parseBudget(*budget)
		if err != nil {
			return err
		}
		analyzer.MaxConflicts = conflicts
		analyzer.MaxPivots = pivots
		analyzer.QueryTimeout = timeout
	}
	analyzer.Capability.States = *states
	if *target > 0 {
		analyzer.TargetIncreasePercent = *target
		in.MinIncreasePercent = *target
	}
	if *operating != "" {
		dispatch, err := parseDispatch(*operating, in.Grid.NumBuses())
		if err != nil {
			return err
		}
		analyzer.OperatingDispatch = dispatch
	}
	switch *verifyMode {
	case "lp":
		analyzer.Verify = gridattack.VerifyLP
	case "smt":
		analyzer.Verify = gridattack.VerifySMT
	case "shift":
		analyzer.Verify = gridattack.VerifyShift
	default:
		return fmt.Errorf("unknown -verify mode %q", *verifyMode)
	}

	rep, err := analyzer.Run()
	if err != nil {
		return err
	}
	if rep.ResumedIterations > 0 {
		fmt.Fprintf(stdout, "resumed %d journaled iteration(s) from %s\n", rep.ResumedIterations, *checkpoint)
	}
	if rep.Canceled {
		fmt.Fprintf(stdout, "examined %d attack vector(s) before the solver budget ran out\n", rep.Iterations)
		return errors.New("solver budget exhausted before a verdict; re-run with a larger -budget (with -checkpoint the analysis resumes where it stopped)")
	}

	out := stdout
	if *outputPath != "" {
		of, err := os.Create(*outputPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	if err := gridattack.WriteResult(out, in, rep.Found, rep.Vector, rep.BaselineCost, rep.AttackedCost); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "examined %d attack vector(s) in %v (attack search %v, OPF verification %v)\n",
		rep.Iterations, rep.Elapsed.Round(1e6), rep.AttackSearchTime.Round(1e6), rep.VerifyTime.Round(1e6))
	if *verbose {
		st := rep.SolverStats
		fmt.Fprintf(stdout, "solver effort: decisions=%d conflicts=%d propagations=%d theory-props=%d pivots=%d\n",
			st.Decisions, st.Conflicts, st.Propagations, st.TheoryProps, st.Pivots)
		fmt.Fprintf(stdout, "arith kernel: rat64-fast=%d bigrat-fallback=%d (%.2f%% fast path) row-pool-reuse=%d\n",
			st.Rat64FastOps, st.Rat64BigOps, st.FastPathPercent(), st.RowPoolReuse)
		fmt.Fprintf(stdout, "exact OPF fallbacks: %d (candidates the SMT model decided)\n", rep.ExactFallbacks)
	}
	return nil
}

// parseBudget parses the -budget flag: comma-separated key=value pairs with
// keys conflicts (SAT conflicts per query), pivots (simplex pivots per
// query), and time (wall clock per query, Go duration syntax).
func parseBudget(s string) (conflicts, pivots int64, timeout time.Duration, err error) {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("-budget: %q is not key=value", part)
		}
		switch key {
		case "conflicts", "pivots":
			n, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil || n < 0 {
				return 0, 0, 0, fmt.Errorf("-budget: %s needs a non-negative integer, got %q", key, val)
			}
			if key == "conflicts" {
				conflicts = n
			} else {
				pivots = n
			}
		case "time":
			d, perr := time.ParseDuration(val)
			if perr != nil || d < 0 {
				return 0, 0, 0, fmt.Errorf("-budget: time needs a duration like 30s, got %q", val)
			}
			timeout = d
		default:
			return 0, 0, 0, fmt.Errorf("-budget: unknown key %q (want conflicts, pivots, or time)", key)
		}
	}
	return conflicts, pivots, timeout, nil
}

func parseDispatch(s string, buses int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != buses {
		return nil, fmt.Errorf("-operating needs %d comma-separated values, got %d", buses, len(parts))
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-operating: bad value %q", p)
		}
		out[i] = v
	}
	return out, nil
}
