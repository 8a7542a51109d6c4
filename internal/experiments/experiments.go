// Package experiments drives the paper's evaluation (Sec. IV): the
// execution-time sweeps of Figs. 4 and 5 and the memory table (Table IV),
// over the same system sizes (5, 14, 30, 57, 118 buses) and randomized
// attacker scenarios. The root bench suite and cmd/benchreport both build on
// this package so `go test -bench` and the CLI report identical series.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/grid"
	"gridattack/internal/opf"
	"gridattack/internal/smt"
)

// Defaults mirroring the paper's methodology.
const (
	// ScenariosPerSystem is the paper's "three experiments taking different
	// random scenarios" per bus size.
	ScenariosPerSystem = 3
	// TargetPercent is the paper's 1-2% cost-increase objective for the
	// scalability runs.
	TargetPercent = 1.5
	// UnsatTargetPercent is far beyond any achievable impact, so the
	// framework must exhaust the (quantized) attack space.
	UnsatTargetPercent = 60
	// QueryTimeout bounds each SMT query in the sweeps so no single hard
	// instance can dominate a run; timed-out rows are reported as canceled.
	QueryTimeout = 12 * time.Second
	// MaxIterationsCap bounds the find-verify loop in the sweeps. The
	// with-states attack space is astronomically large after quantization;
	// the paper bounds it implicitly through Z3's enumeration order, we
	// bound it explicitly and report the capped exhaustion time.
	MaxIterationsCap = 6
)

// TimeRow is one measurement of the scalability sweep.
type TimeRow struct {
	Case     string
	Buses    int
	Scenario int
	Found    bool
	Exhaust  bool
	Canceled bool
	Iters    int
	Elapsed  time.Duration
	// Search and Verify split the elapsed time between the attack model
	// and the OPF model (paper Fig. 5's separation).
	Search, Verify time.Duration
}

// SweepConfig parameterizes a Fig. 4 style sweep.
type SweepConfig struct {
	Cases        []string // defaults to the paper's five systems
	States       bool     // Fig. 4(b) vs 4(a)
	Unsat        bool     // Fig. 4(c): unreachable target
	Scenarios    int      // defaults to ScenariosPerSystem
	MaxConflicts int64
	Verify       core.VerifyMode
}

func (c *SweepConfig) fill() {
	if len(c.Cases) == 0 {
		c.Cases = cases.EvaluationOrder()
	}
	if c.Scenarios <= 0 {
		c.Scenarios = ScenariosPerSystem
	}
}

// RunImpactSweep reproduces Fig. 4(a)/(b)/(c): impact-verification time
// versus problem size across random scenarios.
func RunImpactSweep(cfg SweepConfig) ([]TimeRow, error) {
	cfg.fill()
	reg := cases.Registry()
	var rows []TimeRow
	for _, name := range cfg.Cases {
		c, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown case %q", name)
		}
		for s := 0; s < cfg.Scenarios; s++ {
			sc := core.NewScenario(c, core.ScenarioConfig{
				Seed:   int64(100*s + 7),
				States: cfg.States,
			})
			target := TargetPercent
			if cfg.Unsat {
				target = UnsatTargetPercent
			}
			a := sc.Analyzer(target)
			a.MaxIterations = MaxIterationsCap
			a.MaxConflicts = cfg.MaxConflicts
			a.QueryTimeout = QueryTimeout
			a.Verify = cfg.Verify
			rep, err := a.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s scenario %d: %w", name, s, err)
			}
			rows = append(rows, TimeRow{
				Case:     name,
				Buses:    c.Grid.NumBuses(),
				Scenario: s,
				Found:    rep.Found,
				Exhaust:  rep.Exhausted,
				Canceled: rep.Canceled,
				Iters:    rep.Iterations,
				Elapsed:  rep.Elapsed,
				Search:   rep.AttackSearchTime,
				Verify:   rep.VerifyTime,
			})
		}
	}
	return rows, nil
}

// OPFModelRow is one Fig. 5(a) measurement: the stand-alone SMT OPF model's
// solve time at a given cost-threshold tightness.
type OPFModelRow struct {
	Case      string
	Buses     int
	Tightness float64 // threshold / optimal cost
	Feasible  bool
	Elapsed   time.Duration
}

// RunOPFModel reproduces Fig. 5(a): the OPF feasibility model's execution
// time as the cost constraint tightens toward (and below) the optimum.
func RunOPFModel(caseNames []string, tightness []float64, maxConflicts int64) ([]OPFModelRow, error) {
	if len(caseNames) == 0 {
		caseNames = cases.EvaluationOrder()
	}
	if len(tightness) == 0 {
		tightness = []float64{0.99, 1.001, 1.01, 1.1, 1.5}
	}
	reg := cases.Registry()
	var rows []OPFModelRow
	for _, name := range caseNames {
		c, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown case %q", name)
		}
		base, err := opf.Solve(c.Grid, c.Grid.TrueTopology(), nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s baseline: %w", name, err)
		}
		for _, tf := range tightness {
			start := time.Now()
			feasible, _, err := opf.FeasibleWithinTimeout(c.Grid, c.Grid.TrueTopology(), nil, base.Cost*tf, maxConflicts, 4*QueryTimeout)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s tightness %v: %w", name, tf, err)
			}
			rows = append(rows, OPFModelRow{
				Case:      name,
				Buses:     c.Grid.NumBuses(),
				Tightness: tf,
				Feasible:  feasible,
				Elapsed:   time.Since(start),
			})
		}
	}
	return rows, nil
}

// AttackModelRow is one Fig. 5(b) measurement: the stand-alone attack
// model's time to produce (or refute) an attack vector.
type AttackModelRow struct {
	Case     string
	Buses    int
	Scenario int
	Found    bool
	Canceled bool // solver budget/deadline expired before a verdict
	Elapsed  time.Duration
}

// RunAttackModel reproduces Fig. 5(b)/(c): the attack model solved in
// isolation under random resource scenarios; with unsat=true the scenario
// secures every line status so the model is unsatisfiable.
func RunAttackModel(caseNames []string, scenarios int, states, unsat bool, maxConflicts int64) ([]AttackModelRow, error) {
	if len(caseNames) == 0 {
		caseNames = cases.EvaluationOrder()
	}
	if scenarios <= 0 {
		scenarios = ScenariosPerSystem
	}
	reg := cases.Registry()
	var rows []AttackModelRow
	for _, name := range caseNames {
		c, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown case %q", name)
		}
		for s := 0; s < scenarios; s++ {
			sc := core.NewScenario(c, core.ScenarioConfig{
				Seed:          int64(100*s + 7),
				States:        states,
				Unsatisfiable: unsat,
			})
			pf, err := operatingPoint(sc)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			model, err := attack.NewModel(sc.Case.Grid, sc.Plan, sc.Capability, pf)
			if err != nil {
				return nil, err
			}
			model.MaxConflicts = maxConflicts
			model.MaxDuration = QueryTimeout
			v, err := model.FindVector()
			if err != nil && !errors.Is(err, smt.ErrCanceled) {
				return nil, fmt.Errorf("experiments: %s attack model: %w", name, err)
			}
			rows = append(rows, AttackModelRow{
				Case:     name,
				Buses:    c.Grid.NumBuses(),
				Scenario: s,
				Found:    v != nil,
				Canceled: errors.Is(err, smt.ErrCanceled),
				Elapsed:  time.Since(start),
			})
		}
	}
	return rows, nil
}

// MemoryRow is one Table IV measurement: resident model size for the attack
// model (with states) and the OPF model.
type MemoryRow struct {
	Case        string
	Buses       int
	AttackModel float64 // MB allocated building + solving the attack model
	OPFModel    float64 // MB allocated building + solving the OPF model
}

// RunMemory reproduces Table IV by measuring heap growth across model
// construction and one solve, per system.
func RunMemory(caseNames []string, maxConflicts int64) ([]MemoryRow, error) {
	if len(caseNames) == 0 {
		caseNames = cases.EvaluationOrder()
	}
	reg := cases.Registry()
	var rows []MemoryRow
	for _, name := range caseNames {
		c, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown case %q", name)
		}
		sc := core.NewScenario(c, core.ScenarioConfig{Seed: 7, States: true})
		pf, err := operatingPoint(sc)
		if err != nil {
			return nil, err
		}
		attackMB, err := allocMB(func() error {
			model, err := attack.NewModel(sc.Case.Grid, sc.Plan, sc.Capability, pf)
			if err != nil {
				return err
			}
			model.MaxConflicts = maxConflicts
			model.MaxDuration = QueryTimeout
			if _, err := model.FindVector(); err != nil && !errors.Is(err, smt.ErrCanceled) {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s attack model memory: %w", name, err)
		}
		base, err := opf.Solve(c.Grid, c.Grid.TrueTopology(), nil)
		if err != nil {
			return nil, err
		}
		opfMB, err := allocMB(func() error {
			_, _, err := opf.FeasibleWithinTimeout(c.Grid, c.Grid.TrueTopology(), nil, base.Cost*1.01, maxConflicts, 4*QueryTimeout)
			if errors.Is(err, smt.ErrCanceled) {
				return nil
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s OPF model memory: %w", name, err)
		}
		rows = append(rows, MemoryRow{
			Case:        name,
			Buses:       c.Grid.NumBuses(),
			AttackModel: attackMB,
			OPFModel:    opfMB,
		})
	}
	return rows, nil
}

// CertOverheadRow is one certification-overhead measurement: the same Fig. 2
// find–verify analysis run with certification off and on. Certification adds
// certificate construction on every SMT query plus an independent checker
// pass (model replay for sat, RUP/Farkas trace validation for unsat) before
// each verdict is trusted; the verdicts themselves must be identical.
type CertOverheadRow struct {
	Case      string
	Buses     int
	Iters     int
	Plain     time.Duration
	Certified time.Duration
}

// Overhead is the certified/plain wall-clock ratio.
func (r CertOverheadRow) Overhead() float64 {
	if r.Plain <= 0 {
		return 0
	}
	return float64(r.Certified) / float64(r.Plain)
}

// RunCertificationOverhead measures what trusting only checker-validated
// verdicts costs on the find–verify loop, under the SMT verification backend
// so both the attack-model and the OPF-model queries are certified. It
// errors if certification changes any verdict — the certified run must be
// the same analysis, only slower.
func RunCertificationOverhead(caseNames []string, maxConflicts int64) ([]CertOverheadRow, error) {
	if len(caseNames) == 0 {
		caseNames = []string{"ieee14", "synth30", "synth57"}
	}
	reg := cases.Registry()
	var rows []CertOverheadRow
	for _, name := range caseNames {
		c, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown case %q", name)
		}
		// Seed 1 matches the scale smoke tests and yields a multi-iteration
		// loop on every evaluation system, so the overhead number reflects
		// real find-verify work rather than an instant exhaustion.
		sc := core.NewScenario(c, core.ScenarioConfig{Seed: 1, States: true})
		runOnce := func(certify bool) (*core.Report, error) {
			a := sc.Analyzer(TargetPercent)
			a.MaxIterations = MaxIterationsCap
			a.MaxConflicts = maxConflicts
			a.QueryTimeout = QueryTimeout
			a.Verify = core.VerifySMT
			a.Certify = certify
			return a.Run()
		}
		plain, err := runOnce(false)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s plain run: %w", name, err)
		}
		cert, err := runOnce(true)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s certified run: %w", name, err)
		}
		if plain.Found != cert.Found || plain.Exhausted != cert.Exhausted || plain.Iterations != cert.Iterations {
			return nil, fmt.Errorf("experiments: %s certification changed the verdict (found=%v exhausted=%v iters=%d, want found=%v exhausted=%v iters=%d)",
				name, cert.Found, cert.Exhausted, cert.Iterations, plain.Found, plain.Exhausted, plain.Iterations)
		}
		rows = append(rows, CertOverheadRow{
			Case:      name,
			Buses:     c.Grid.NumBuses(),
			Iters:     plain.Iterations,
			Plain:     plain.Elapsed,
			Certified: cert.Elapsed,
		})
	}
	return rows, nil
}

// operatingPoint solves the OPF-optimal operating point of a scenario's
// grid (the state the attacker observes in the stand-alone model runs).
func operatingPoint(sc core.Scenario) (*grid.PowerFlow, error) {
	g := sc.Case.Grid
	base, err := opf.Solve(g, g.TrueTopology(), nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s operating OPF: %w", g.Name, err)
	}
	pf, err := g.SolvePowerFlow(g.TrueTopology(), base.Dispatch)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s operating point: %w", g.Name, err)
	}
	return pf, nil
}

// allocMB measures the heap allocated across fn in megabytes.
func allocMB(fn func() error) (float64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), nil
}
