package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/grid"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
	"gridattack/internal/textio"
)

// analyzeKind describes one Fig. 4 workload: the paper's systems under
// three attacker scenarios each, a 1.5% target, and the sweep's limits.
type analyzeKind struct {
	name    string
	systems []string // smallest first
	// reps repeats the fast systems within a pass so their medians rest on
	// more than a handful of samples; the op mix stays fixed.
	reps   map[string]int
	states bool
	verify core.VerifyMode
	par    int // Analyzer.Parallelism; 0 = nproc
}

var analyzeLP = analyzeKind{
	name:    "analyze-lp",
	systems: []string{"paper5", "ieee14", "synth30", "synth57", "synth118"},
	reps:    map[string]int{"paper5": 32, "ieee14": 8, "synth30": 4},
	verify:  core.VerifyLP,
	par:     1,
}

var analyzeSMT = analyzeKind{
	name:    "analyze-smt",
	systems: []string{"paper5", "ieee14", "synth30"},
	reps:    map[string]int{"paper5": 16},
	states:  true,
	verify:  core.VerifySMT,
	par:     0,
}

const (
	scenarios     = 3
	targetPercent = 1.5
	// passSeconds is the nominal length of one pass on the reference
	// machine; -seconds fixes the number of passes from it.
	passSeconds = 5
)

type problem struct {
	id     string // "<system>/s<scenario>"
	system string
	reps   int
	text   string        // the problem in the paper's input format
	a      core.Analyzer // template; every Run uses a copy
}

// problemTexts renders the fixed problem set in the paper's text input
// format; the analyzer gets each problem by parsing its text, as a user's
// would. The scenario seeds do not depend on the run's seed: a new seed must
// not change how much work a run does, or run-to-run spread would measure
// the inputs instead of the code.
func problemTexts(k analyzeKind, short bool) ([]problem, error) {
	systems := k.systems
	if short {
		systems = []string{"paper5"}
	}
	var out []problem
	for _, name := range systems {
		c, err := cases.ByName(name)
		if err != nil {
			return nil, err
		}
		for s := 0; s < scenarios; s++ {
			sc := core.NewScenario(c, core.ScenarioConfig{Seed: int64(100*s + 1)})
			text, _, err := renderRequest(*sc.Analyzer(targetPercent), []float64{targetPercent})
			if err != nil {
				return nil, err
			}
			reps := max(1, k.reps[name])
			if short {
				reps = 1
			}
			out = append(out, problem{id: fmt.Sprintf("%s/s%d", name, s), system: name, reps: reps, text: text})
		}
	}
	return out, nil
}

// parseProblems is the analyze workloads' set-up: parse every problem file
// and configure its analysis with the sweep's limits.
func parseProblems(k analyzeKind, texts []problem) ([]problem, error) {
	par := k.par
	if par == 0 {
		par = runtime.NumCPU()
	}
	out := make([]problem, len(texts))
	for i, pr := range texts {
		in, err := textio.Parse(strings.NewReader(pr.text))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.id, err)
		}
		capability := in.Capability
		capability.States = k.states
		pr.a = core.Analyzer{
			Grid:                  in.Grid,
			Plan:                  in.Plan,
			Capability:            capability,
			TargetIncreasePercent: in.MinIncreasePercent,
			MaxIterations:         6,
			MaxConflicts:          2_000_000,
			QueryTimeout:          60 * time.Second,
			Verify:                k.verify,
			Parallelism:           par,
		}
		out[i] = pr
	}
	return out, nil
}

func pinOf(rep *core.Report) verdictPin {
	p := verdictPin{
		Found: rep.Found, Exhausted: rep.Exhausted, Canceled: rep.Canceled, Iterations: rep.Iterations,
		BaselineCost: floatBits(rep.BaselineCost), AttackedCost: floatBits(rep.AttackedCost),
	}
	if rep.Vector != nil {
		p.Vector = digest(rep.Vector)
	}
	return p
}

// runProblem runs one problem once and checks its verdict. It returns the
// report, or nil when the run failed.
func runProblem(r *run, k analyzeKind, pr problem) *core.Report {
	a := pr.a
	r.attempted++
	rep, err := a.Run()
	if err != nil {
		r.mismatch("%s %s: %v", k.name, pr.id, err)
		return nil
	}
	r.checkVerdict(k.name, pr.id, pinOf(rep))
	return rep
}

func runAnalyze(r *run, k analyzeKind) error {
	cfg := r.cfg
	nSetup := 21
	if cfg.trace {
		nSetup = 1
	}
	texts, err := problemTexts(k, cfg.short)
	if err != nil {
		return err
	}
	problems, setupS, err := setupMedian(&r.speed, nSetup, func(int) ([]problem, error) { return parseProblems(k, texts) }, func([]problem) {})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.trace {
		return traceAnalyze(r, k, problems, rng)
	}
	r.set("setup_s", setupS, "s")

	passes := max(1, int(math.Round(float64(cfg.seconds)/passSeconds)))
	if cfg.short {
		passes = 1
	}
	samples := map[string][]float64{}
	alloc := r.startAlloc()
	for p := 0; p < passes; p++ {
		// The seed orders the problems; the set itself is fixed.
		for _, i := range rng.Perm(len(problems)) {
			pr := problems[i]
			for n := 0; n < pr.reps; n++ {
				// Each Run starts on a collected heap, as in a fresh
				// opfattack process, so its time does not depend on how
				// much garbage the problems before it left.
				runtime.GC()
				r.speed.tick()
				t0 := time.Now()
				rep := runProblem(r, k, pr)
				d := time.Since(t0)
				if rep != nil {
					samples[pr.id] = append(samples[pr.id], float64(d.Nanoseconds())/1e6)
				}
			}
		}
	}
	r.set("alloc_mb_per_op", alloc.perOp(r.attempted), "MB")
	r.samples["passes"] = passes
	r.samples["runs"] = r.attempted

	var meds []float64
	bySystem := map[string][]float64{}
	for _, pr := range problems {
		m := median(samples[pr.id])
		meds = append(meds, m)
		bySystem[pr.system] = append(bySystem[pr.system], m)
	}
	for sys, ms := range bySystem {
		r.layer("core.run_ms."+sys, mean(ms), "ms")
	}
	// The geometric mean weighs every system size the same, where a median
	// over problems would be the time of whichever problem sits in the middle.
	g, err := geomean(meds)
	if err != nil {
		return err
	}
	r.set("latency_ms", g, "ms")
	// The tail is the largest system's verdict time, averaged over its
	// scenarios: the slowest single problem has only one sample per pass.
	r.set("tail_ms", mean(bySystem[problems[len(problems)-1].system]), "ms")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traceAnalyze runs each problem once through Analyzer.Run (untraced, for
// the counters and the untraced wall time) and once through the traced
// replay, which must reach the same verdict; then the layer census.
func traceAnalyze(r *run, k analyzeKind, problems []problem, rng *rand.Rand) error {
	order := rng.Perm(len(problems))
	var runWall, replayWall, setup time.Duration
	var reps []*core.Report
	pins := map[string]verdictPin{}
	for _, i := range order {
		pr := problems[i]
		runtime.GC()
		rep := runProblem(r, k, pr)
		if rep == nil {
			continue
		}
		reps = append(reps, rep)
		pins[pr.id] = pinOf(rep)
		runWall += rep.Elapsed
		setup += rep.Elapsed - rep.AttackSearchTime - rep.VerifyTime
	}
	if len(reps) == 0 {
		return errors.New("no problem completed")
	}
	for _, i := range order {
		pr := problems[i]
		r.attempted++
		runtime.GC()
		t0 := time.Now()
		got, err := replay(r.tr, pr.id, pr.a)
		replayWall += time.Since(t0)
		if err != nil {
			r.mismatch("%s %s replay: %v", k.name, pr.id, err)
			continue
		}
		r.checkVerdict(k.name, pr.id, got)
		if want, ok := pins[pr.id]; ok && got != want {
			r.mismatch("%s %s: replay verdict %+v differs from Analyzer.Run's %+v", k.name, pr.id, got, want)
		}
	}
	setReportCounts(r, reps)
	r.layer("core.setup_ms", float64(setup.Nanoseconds())/1e6/float64(len(reps)), "ms")
	gap := replayWall.Seconds()/runWall.Seconds() - 1
	r.layer("trace_gap_frac", gap, "ratio")
	if k.verify == core.VerifyLP && gap > 0.10 {
		fmt.Fprintf(os.Stderr, "gridbench: warning: traced replay is %.1f%% slower than Analyzer.Run; the replay may not represent the program\n", 100*gap)
	}
	for name, spans := range map[string]string{"opf.baseline_ms": "opf.solve", "opf.feas_encode_ms": "opf.feas_encode", "opf.feas_check_ms": "opf.feas_check"} {
		if d := r.tr.durations(spans, ""); len(d) > 0 {
			r.layer(name, median(d), "ms")
		}
	}
	// The census runs on the workload's largest system, which needs more
	// than one iteration, so even a toy run reaches every call of the loop.
	target, err := scenarioProblem(k, k.systems[len(k.systems)-1], 0)
	if err != nil {
		return err
	}
	return runCensus(r, target)
}

// setReportCounts reports the analyzer's public counters, per Run where
// they are effort counts.
func setReportCounts(r *run, reps []*core.Report) {
	var st smt.Stats
	var iters, calls, pruned, lpSolves, lpHits int
	var busy, elapsed time.Duration
	for _, rep := range reps {
		st.Add(rep.SolverStats)
		iters += rep.Iterations
		// Every iteration starts with a search; an exhausting search is one more.
		calls += rep.Iterations
		if rep.Exhausted {
			calls++
		}
		pruned += rep.PrescreenPruned
		lpSolves += rep.LPStats.Solves
		lpHits += rep.LPStats.WarmHits
		busy += rep.AttackSearchTime + rep.VerifyTime
		elapsed += rep.Elapsed
	}
	n := float64(len(reps))
	r.set("core.iterations", float64(iters)/n, "count")
	r.set("attack.search_calls", float64(calls)/n, "count")
	r.set("core.prescreen_pruned", float64(pruned), "count")
	r.set("core.overlap", busy.Seconds()/elapsed.Seconds(), "ratio")
	if lpSolves > 0 {
		r.set("opf.warm_hit_frac", float64(lpHits)/float64(lpSolves), "ratio")
	}
	r.set("smt.conflicts", float64(st.Conflicts)/n, "count")
	r.set("smt.decisions", float64(st.Decisions)/n, "count")
	r.set("smt.pivots", float64(st.Pivots)/n, "count")
	r.set("smt.theory_props", float64(st.TheoryProps)/n, "count")
	r.set("smt.rat64_fast_ops", float64(st.Rat64FastOps)/n, "count")
	r.set("smt.rat64_big_ops", float64(st.Rat64BigOps)/n, "count")
	r.set("smt.fast_path_frac", st.FastPathPercent()/100, "ratio")
}

// replay re-enacts the sequential Fig. 2 loop of Analyzer.Run through the
// same public calls, with a span around each, and returns its verdict. It
// leaves out the in-loop prescreen, which may only skip verifications whose
// failure it proves, so the verdict is the same; runs that disagree with
// Analyzer.Run fail the benchmark.
func replay(tr *tracer, req string, a core.Analyzer) (verdictPin, error) {
	root := tr.begin("core.run", 0, req)
	defer tr.end(root, "")
	var pin verdictPin
	g := a.Grid
	trueTopo := g.TrueTopology()
	var base *opf.Solution
	if err := tr.timed("opf.solve", root, req, func() (err error) {
		base, err = opf.Solve(g, trueTopo, nil)
		return err
	}); err != nil {
		return pin, err
	}
	threshold := base.Cost * (1 + a.TargetIncreasePercent/100)
	pin.BaselineCost = floatBits(base.Cost)
	pin.AttackedCost = floatBits(0)
	dispatch := a.OperatingDispatch
	if dispatch == nil {
		dispatch = base.Dispatch
	}
	var pf *grid.PowerFlow
	if err := tr.timed("grid.powerflow", root, req, func() (err error) {
		pf, err = g.SolvePowerFlow(trueTopo, dispatch)
		return err
	}); err != nil {
		return pin, err
	}
	var model *attack.Model
	if err := tr.timed("attack.encode", root, req, func() (err error) {
		model, err = attack.NewModel(g, a.Plan, a.Capability, pf)
		return err
	}); err != nil {
		return pin, err
	}
	model.MaxConflicts = a.MaxConflicts
	model.MaxDuration = a.QueryTimeout
	model.MaxPivots = a.MaxPivots
	model.Certify = a.Certify
	var ws *opf.WarmSolver
	if a.Verify == 0 || a.Verify == core.VerifyLP {
		ws = opf.NewWarmSolver(g)
	}
	maxIter := a.MaxIterations
	if maxIter <= 0 {
		maxIter = 200
	}
	for pin.Iterations < maxIter {
		var v *attack.Vector
		err := tr.timed("attack.search", root, req, func() (err error) {
			v, err = model.FindVector()
			return err
		})
		if errors.Is(err, smt.ErrCanceled) {
			pin.Canceled = true
			break
		}
		if err != nil {
			return pin, err
		}
		if v == nil {
			pin.Exhausted = true
			break
		}
		pin.Iterations++
		vs := tr.begin("opf.verify", root, req)
		cost, reached, err := verifyCandidate(tr, vs, req, a, ws, v, threshold)
		tr.end(vs, "")
		if errors.Is(err, smt.ErrCanceled) {
			pin.Canceled = true
			break
		}
		if err != nil {
			return pin, err
		}
		if reached {
			pin.Found = true
			pin.Vector = digest(v)
			pin.AttackedCost = floatBits(cost)
			break
		}
		tr.timed("attack.block", root, req, func() error {
			model.Block(v, a.BlockPrecision)
			return nil
		})
	}
	return pin, nil
}

// verifyCandidate is Analyzer.Run's verification step for LP and SMT.
func verifyCandidate(tr *tracer, parent int, req string, a core.Analyzer, ws *opf.WarmSolver, v *attack.Vector, threshold float64) (float64, bool, error) {
	if ws != nil {
		sol, err := ws.SolveTopology(v.MappedTopology, v.ObservedLoads)
		if errors.Is(err, opf.ErrInfeasible) {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		return sol.Cost, sol.Cost >= threshold, nil
	}
	if a.Verify != core.VerifySMT {
		return 0, false, fmt.Errorf("replay supports LP and SMT verification, not %v", a.Verify)
	}
	var fm *opf.FeasibilityModel
	if err := tr.timed("opf.feas_encode", parent, req, func() (err error) {
		fm, err = opf.NewFeasibilityModel(a.Grid, v.MappedTopology, v.ObservedLoads, a.MaxConflicts, a.QueryTimeout)
		return err
	}); err != nil {
		return 0, false, err
	}
	fm.Incremental = !a.NoIncremental && !a.Certify && !smt.CertifyDefault()
	fm.Parallelism = 1
	fm.MaxPivots = a.MaxPivots
	fm.Certify = a.Certify
	check := func(limit float64) (below bool, err error) {
		err = tr.timed("opf.feas_check", parent, req, func() (err error) {
			below, err = fm.CheckCostBelow(context.Background(), limit)
			return err
		})
		return below, err
	}
	// Eq. 38 first (OPF converges under a generous cap), then Eq. 37.
	converges, err := check(threshold * 10)
	if err != nil || !converges {
		return 0, false, err
	}
	below, err := check(threshold)
	return 0, !below, err
}
