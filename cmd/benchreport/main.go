// Command benchreport regenerates the paper's evaluation artifacts (Sec. IV)
// and prints them as tables: Fig. 4(a)/(b)/(c) impact-verification times,
// Fig. 5(a) OPF-model times, Fig. 5(b)/(c) attack-model times, and Table IV
// memory requirements. The extra "cert" artifact measures what trusting only
// checker-validated verdicts costs on the find-verify loop.
//
// Performance is measured by the benchmark harness in bench/ (see
// bench/README.md), not here.
//
// Usage:
//
//	benchreport -fig 4a            # one artifact
//	benchreport -all               # everything (minutes on large systems)
//	benchreport -fig 4b -cases paper5,ieee14,synth30
//	benchreport -fig cert          # certification overhead
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"gridattack/internal/experiments"
)

// artifacts lists every kind -fig accepts, in -all order.
var artifacts = []string{"4a", "4b", "4c", "5a", "5b", "5c", "t4", "cert"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		fig          = fs.String("fig", "", "artifact: "+strings.Join(artifacts, ", "))
		all          = fs.Bool("all", false, "run every artifact")
		caseList     = fs.String("cases", "", "comma-separated case subset (default: all five systems)")
		maxConflicts = fs.Int64("max-conflicts", 2_000_000, "SMT conflict budget per query (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	if *caseList != "" {
		names = strings.Split(*caseList, ",")
	}
	selected := []string{*fig}
	if *all {
		selected = artifacts
	}
	for _, a := range selected {
		if a == "" {
			return fmt.Errorf("pass -fig or -all")
		}
		if err := runOne(stdout, a, names, *maxConflicts); err != nil {
			return err
		}
	}
	return nil
}

func runOne(w io.Writer, artifact string, names []string, maxConflicts int64) error {
	switch artifact {
	case "4a", "4b", "4c":
		cfg := experiments.SweepConfig{
			Cases:        names,
			States:       artifact == "4b",
			Unsat:        artifact == "4c",
			MaxConflicts: maxConflicts,
		}
		rows, err := experiments.RunImpactSweep(cfg)
		if err != nil {
			return err
		}
		title := map[string]string{
			"4a": "Fig. 4(a): impact verification time, topology attacks without infecting states",
			"4b": "Fig. 4(b): impact verification time, topology attacks including infecting states",
			"4c": "Fig. 4(c): impact verification time, unsatisfiable cases",
		}[artifact]
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tscenario\tresult\titers\ttime\tattack-search\topf-verify")
		for _, r := range rows {
			result := "iter-capped"
			switch {
			case r.Found:
				result = "sat"
			case r.Exhaust:
				result = "unsat"
			case r.Canceled:
				result = "timeout"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%v\t%v\t%v\n",
				r.Case, r.Buses, r.Scenario, result, r.Iters,
				r.Elapsed.Round(1e5), r.Search.Round(1e5), r.Verify.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "5a":
		rows, err := experiments.RunOPFModel(names, nil, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig. 5(a): OPF model execution time vs. cost-constraint tightness")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tthreshold/optimal\tresult\ttime")
		for _, r := range rows {
			result := "unsat"
			if r.Feasible {
				result = "sat"
			}
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%s\t%v\n", r.Case, r.Buses, r.Tightness, result, r.Elapsed.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "5b", "5c":
		unsat := artifact == "5c"
		rows, err := experiments.RunAttackModel(names, 0, true, unsat, maxConflicts)
		if err != nil {
			return err
		}
		title := "Fig. 5(b): topology attack model execution time"
		if unsat {
			title = "Fig. 5(c): attack model execution time, unsatisfiable cases"
		}
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\tscenario\tresult\ttime")
		for _, r := range rows {
			result := "unsat"
			if r.Found {
				result = "sat"
			}
			if r.Canceled {
				result = "timeout"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%v\n", r.Case, r.Buses, r.Scenario, result, r.Elapsed.Round(1e5))
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "t4":
		rows, err := experiments.RunMemory(names, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table IV: memory (MB) required by the solver")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "buses\ttopology attack model (MB)\tOPF model (MB)")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", r.Buses, r.AttackModel, r.OPFModel)
		}
		tw.Flush()
		fmt.Fprintln(w)

	case "cert":
		rows, err := experiments.RunCertificationOverhead(names, maxConflicts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Certification overhead: find-verify loop with checker-validated verdicts")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "case\tbuses\titers\tplain\tcertified\toverhead")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%.2fx\n",
				r.Case, r.Buses, r.Iters, r.Plain.Round(1e5), r.Certified.Round(1e5), r.Overhead())
		}
		tw.Flush()
		fmt.Fprintln(w)

	default:
		return fmt.Errorf("unknown artifact %q (want %s)", artifact, strings.Join(artifacts, ", "))
	}
	return nil
}
