// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. IV), plus ablation benches for the design choices called out in
// DESIGN.md. Each figure has one benchmark with sub-benchmarks per system
// size; cmd/benchreport prints the same series as human-readable tables.
//
// Absolute numbers will not match the paper's 2014-era i5 + Z3 testbed; the
// shapes do: combined-model time grows superlinearly with bus count,
// individual models are cheaper than the combined loop, unsat runs cost more
// than sat runs, with-states costs more than topology-only, and the OPF
// model slows as the cost threshold tightens (EXPERIMENTS.md records a full
// paper-vs-measured comparison).
//
// The largest with-states and tight-threshold instances take minutes per
// iteration by design (the paper reports the same blow-up, which motivated
// its Sec. IV-A shift-factor optimization); every heavy benchmark is capped
// with an SMT conflict budget so a full -bench=. run stays bounded.
package gridattack_test

import (
	"fmt"
	"testing"

	"gridattack"
	"gridattack/internal/experiments"
)

// benchConflictBudget bounds SMT effort per query in the heavy sweeps.
const benchConflictBudget = 150_000

// smallSystems keeps the cheapest artifact sweeps fast.
var (
	allSystems   = []string{"paper5", "ieee14", "synth30", "synth57", "synth118"}
	smallSystems = []string{"paper5", "ieee14", "synth30"}
)

// BenchmarkFig4aImpactTopologyOnly reproduces Fig. 4(a): impact-verification
// time for topology attacks without state infection, three random scenarios
// per system.
func BenchmarkFig4aImpactTopologyOnly(b *testing.B) {
	for _, name := range allSystems {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.RunImpactSweep(experiments.SweepConfig{
					Cases:        []string{name},
					States:       false,
					MaxConflicts: benchConflictBudget,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4bImpactWithStates reproduces Fig. 4(b): the same sweep with
// UFDI state infection enabled.
func BenchmarkFig4bImpactWithStates(b *testing.B) {
	for _, name := range allSystems {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.RunImpactSweep(experiments.SweepConfig{
					Cases:        []string{name},
					States:       true,
					MaxConflicts: benchConflictBudget,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4cImpactUnsat reproduces Fig. 4(c): unsatisfiable cases (an
// unreachable target forces exhaustion of the quantized attack space).
func BenchmarkFig4cImpactUnsat(b *testing.B) {
	for _, name := range allSystems {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.RunImpactSweep(experiments.SweepConfig{
					Cases:        []string{name},
					States:       false,
					Unsat:        true,
					MaxConflicts: benchConflictBudget,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5aOPFModel reproduces Fig. 5(a): the stand-alone SMT OPF
// model's time versus cost-threshold tightness. The exact-rational simplex
// makes the 57/118-bus instances very expensive — the paper reports the same
// blow-up (Sec. IV-A) — so the full sweep runs on the small systems and the
// large ones get a single loose-threshold point under a conflict budget.
func BenchmarkFig5aOPFModel(b *testing.B) {
	for _, name := range smallSystems {
		for _, tight := range []float64{0.99, 1.001, 1.01, 1.1, 1.5} {
			b.Run(fmt.Sprintf("%s/tightness=%.3f", name, tight), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := experiments.RunOPFModel([]string{name}, []float64{tight}, benchConflictBudget)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("synth57/tightness=1.100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := experiments.RunOPFModel([]string{"synth57"}, []float64{1.1}, benchConflictBudget)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5bAttackModel reproduces Fig. 5(b): the stand-alone topology
// attack model under three random resource scenarios per system.
func BenchmarkFig5bAttackModel(b *testing.B) {
	for _, name := range allSystems {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.RunAttackModel([]string{name}, 0, true, false, benchConflictBudget)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5cModelsUnsat reproduces Fig. 5(c): the individual models in
// unsatisfiable configurations (all statuses secured refutes the attack
// model; a below-optimal threshold refutes the OPF model).
func BenchmarkFig5cModelsUnsat(b *testing.B) {
	for _, name := range allSystems {
		b.Run("attack/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.RunAttackModel([]string{name}, 0, true, true, benchConflictBudget)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, name := range smallSystems {
		b.Run("opf/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.RunOPFModel([]string{name}, []float64{0.99}, benchConflictBudget)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4ModelMemory reproduces Table IV: the solver's memory for
// the attack model (with states) and the OPF model, per system. Read the
// MB/op metric emitted by -benchmem together with cmd/benchreport -fig t4.
func BenchmarkTable4ModelMemory(b *testing.B) {
	for _, name := range allSystems {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var attackMB, opfMB float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunMemory([]string{name}, benchConflictBudget)
				if err != nil {
					b.Fatal(err)
				}
				attackMB = rows[0].AttackModel
				opfMB = rows[0].OPFModel
			}
			b.ReportMetric(attackMB, "attackModelMB")
			b.ReportMetric(opfMB, "opfModelMB")
		})
	}
}

// BenchmarkCaseStudy1 regenerates the Sec. III-G Case Study 1 run end to
// end (find the vector, verify +3%).
func BenchmarkCaseStudy1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := &gridattack.Analyzer{
			Grid:                  gridattack.Paper5Bus(),
			Plan:                  gridattack.Paper5PlanCase1(),
			Capability:            gridattack.Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true},
			TargetIncreasePercent: 3,
			OperatingDispatch:     gridattack.Paper5OperatingDispatch(),
		}
		rep, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Found {
			b.Fatal("CS1 attack not found")
		}
	}
}

// BenchmarkCaseStudy2 regenerates Case Study 2 (topology + states, +6%).
func BenchmarkCaseStudy2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := &gridattack.Analyzer{
			Grid:                  gridattack.Paper5Bus(),
			Plan:                  gridattack.Paper5PlanCase2(),
			Capability:            gridattack.Capability{MaxMeasurements: 12, MaxBuses: 3, States: true, RequireTopologyChange: true},
			TargetIncreasePercent: 6,
			OperatingDispatch:     gridattack.Paper5OperatingDispatch(),
		}
		rep, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Found {
			b.Fatal("CS2 attack not found")
		}
	}
}

// --- Ablation benches (DESIGN.md "Key design choices") ---

// BenchmarkAblationVerifyBackend compares the three OPF verification
// backends of the Fig. 2 loop on Case Study 1: exact LP, the paper's SMT
// feasibility model, and the Sec. IV-A shift-factor OPF.
func BenchmarkAblationVerifyBackend(b *testing.B) {
	for _, mode := range []gridattack.VerifyMode{gridattack.VerifyLP, gridattack.VerifySMT, gridattack.VerifyShift} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := &gridattack.Analyzer{
					Grid:                  gridattack.Paper5Bus(),
					Plan:                  gridattack.Paper5PlanCase1(),
					Capability:            gridattack.Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true},
					TargetIncreasePercent: 3,
					OperatingDispatch:     gridattack.Paper5OperatingDispatch(),
					Verify:                mode,
				}
				if _, err := a.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBlockPrecision sweeps the blocking quantization (the
// paper uses 2 digits = 0.01): coarser blocking converges in fewer
// iterations at the risk of skipping near-duplicate vectors.
func BenchmarkAblationBlockPrecision(b *testing.B) {
	for _, prec := range []float64{0.1, 0.01, 0.001} {
		b.Run(fmt.Sprintf("precision=%g", prec), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				a := &gridattack.Analyzer{
					Grid:                  gridattack.Paper5Bus(),
					Plan:                  gridattack.Paper5PlanCase2(),
					Capability:            gridattack.Capability{MaxMeasurements: 12, MaxBuses: 3, States: true, RequireTopologyChange: true},
					TargetIncreasePercent: 20, // unreachable: forces exhaustion
					OperatingDispatch:     gridattack.Paper5OperatingDispatch(),
					BlockPrecision:        prec,
					MaxIterations:         40,
				}
				rep, err := a.Run()
				if err != nil {
					b.Fatal(err)
				}
				iters = rep.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkAblationExactVsFloatOPF compares the exact-rational SMT OPF
// feasibility query against the float64 LP on the same instance — the cost
// of soundness.
func BenchmarkAblationExactVsFloatOPF(b *testing.B) {
	g := gridattack.IEEE14Bus()
	base, err := gridattack.SolveOPF(g, g.TrueTopology(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("float-lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gridattack.SolveOPF(g, g.TrueTopology(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-smt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gridattack.OPFFeasibleWithin(g, g.TrueTopology(), nil, base.Cost*1.01); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDefenseSynthesis measures the counterexample-guided
// minimum-hitting-set countermeasure synthesis on the paper's system.
func BenchmarkDefenseSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &gridattack.DefenseSynthesizer{
			Grid: gridattack.Paper5Bus(),
			Plan: gridattack.Paper5PlanCase2(),
			Analyzer: gridattack.Analyzer{
				Capability: gridattack.Capability{
					MaxMeasurements: 12, MaxBuses: 3, States: true, RequireTopologyChange: true,
				},
				OperatingDispatch: gridattack.Paper5OperatingDispatch(),
			},
			Tolerance: 2,
		}
		plan, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !plan.Certified {
			b.Fatal("synthesis not certified")
		}
	}
}

// BenchmarkContingencyScreen118 measures full N-1 screening on the largest
// system (one LODF evaluation per line pair).
func BenchmarkContingencyScreen118(b *testing.B) {
	c, err := gridattack.CaseByName("synth118")
	if err != nil {
		b.Fatal(err)
	}
	g := c.Grid
	sol, err := gridattack.SolveOPF(g, g.TrueTopology(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridattack.ScreenContingencies(g, g.TrueTopology(), sol.Flows); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkPowerFlow118 measures a DC power-flow solve on the largest
// system.
func BenchmarkPowerFlow118(b *testing.B) {
	c, err := gridattack.CaseByName("synth118")
	if err != nil {
		b.Fatal(err)
	}
	g := c.Grid
	base, err := gridattack.SolveOPF(g, g.TrueTopology(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolvePowerFlow(g.TrueTopology(), base.Dispatch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPTDF118 measures distribution-factor computation on the largest
// system.
func BenchmarkPTDF118(b *testing.B) {
	c, err := gridattack.CaseByName("synth118")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridattack.NewFactors(c.Grid, c.Grid.TrueTopology()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateEstimation118 measures one WLS estimation on the largest
// system with its full measurement set.
func BenchmarkStateEstimation118(b *testing.B) {
	c, err := gridattack.CaseByName("synth118")
	if err != nil {
		b.Fatal(err)
	}
	g := c.Grid
	base, err := gridattack.SolveOPF(g, g.TrueTopology(), nil)
	if err != nil {
		b.Fatal(err)
	}
	pf, err := g.SolvePowerFlow(g.TrueTopology(), base.Dispatch)
	if err != nil {
		b.Fatal(err)
	}
	z, err := c.Plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	est := gridattack.NewEstimator(g, c.Plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(g.TrueTopology(), z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertificationOverhead measures the cost of checker-validated
// verdicts on the find–verify loop (cmd/benchreport -fig cert prints the
// same comparison as a plain-vs-certified table).
func BenchmarkCertificationOverhead(b *testing.B) {
	for _, name := range []string{"ieee14", "synth30", "synth57"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunCertificationOverhead([]string{name}, benchConflictBudget)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					b.ReportMetric(r.Overhead(), "certified/plain")
				}
			}
		})
	}
}

// BenchmarkSMTSolverRandom3SAT measures the CDCL core on a fixed satisfiable
// random 3-SAT instance.
func BenchmarkSMTSolverRandom3SAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := gridattack.NewSMTSolver()
		vars := make([]int, 60)
		for j := range vars {
			vars[j] = s.NewBool("")
		}
		// Deterministic pseudo-random clause pattern.
		state := uint64(0x9E3779B97F4A7C15)
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		for c := 0; c < 240; c++ {
			lits := make([]*gridattack.Formula, 3)
			for k := range lits {
				f := gridattack.BoolF(vars[next(len(vars))])
				if next(2) == 0 {
					f = gridattack.NotF(f)
				}
				lits[k] = f
			}
			s.Assert(gridattack.OrF(lits...))
		}
		if _, err := s.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
