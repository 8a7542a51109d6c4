// Package gridattack is a library for studying stealthy topology-poisoning
// attacks on the economic operation of DC-modeled power grids, reproducing
// Rahman, Al-Shaer & Kavasseri, "Impact Analysis of Topology Poisoning
// Attacks on Economic Operation of the Smart Power Grid" (ICDCS 2014).
//
// The facade re-exports the curated public API of the internal packages:
//
//   - grid modeling and DC power flow (Grid, Line, Topology, ...);
//   - measurement plans and telemetry vectors (Plan, Measurements);
//   - the topology processor (StatusReport, TopologyProcessor);
//   - WLS state estimation with bad-data detection (Estimator);
//   - DC optimal power flow (SolveOPF, OPFFeasibleWithin, SolveOPFShift);
//   - PTDF/LODF/LCDF distribution factors (Factors, LCDF);
//   - the SMT solver used as the verification engine (SMTSolver, ...);
//   - the attack model (AttackModel, AttackVector, Capability);
//   - the impact-analysis framework (Analyzer, Report) — the paper's
//     primary contribution;
//   - the EMS pipeline and AGC loop (EMSPipeline, AGC);
//   - the SCADA transport with the MITM attacker (RTU, Center, MITM);
//   - the supervised continuous-operation runtime (FleetSupervisor,
//     RTUFleet, FaultMatrix);
//   - the paper's text input/output format (ParseInput, WriteInput).
//
// Quick start (the paper's Case Study 1):
//
//	g := gridattack.Paper5Bus()
//	a := &gridattack.Analyzer{
//		Grid:                  g,
//		Plan:                  gridattack.Paper5PlanCase1(),
//		Capability:            gridattack.Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true},
//		TargetIncreasePercent: 3,
//		OperatingDispatch:     gridattack.Paper5OperatingDispatch(),
//	}
//	rep, err := a.Run()
//	// rep.Found, rep.Vector, rep.AttackedCost ...
package gridattack

import (
	"io"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/contingency"
	"gridattack/internal/core"
	"gridattack/internal/defense"
	"gridattack/internal/dist"
	"gridattack/internal/ems"
	"gridattack/internal/faultinject"
	"gridattack/internal/fleet"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/scada"
	"gridattack/internal/se"
	"gridattack/internal/smt"
	"gridattack/internal/textio"
	"gridattack/internal/topo"
)

// Grid modeling.
type (
	// Grid is a complete DC power-system description.
	Grid = grid.Grid
	// Bus is a network node.
	Bus = grid.Bus
	// Line is a transmission branch with its attack-relevant attributes.
	Line = grid.Line
	// Generator is a dispatchable source with a linear cost curve.
	Generator = grid.Generator
	// Load is a demand with the operator's plausible bounds.
	Load = grid.Load
	// Topology is a set of closed (mapped) lines.
	Topology = grid.Topology
	// PowerFlow is a solved DC power-flow state.
	PowerFlow = grid.PowerFlow
)

// NewTopology builds a topology from closed line IDs.
func NewTopology(closed []int) Topology { return grid.NewTopology(closed) }

// Measurements.
type (
	// Plan records which measurements are taken, secured, and reachable.
	Plan = measure.Plan
	// Measurements is a telemetry snapshot indexed by measurement number.
	Measurements = measure.Vector
)

// NewPlan returns an empty measurement plan for l lines and b buses.
func NewPlan(l, b int) *Plan { return measure.NewPlan(l, b) }

// FullPlan returns a plan with every measurement taken and reachable.
func FullPlan(l, b int) *Plan { return measure.FullPlan(l, b) }

// Topology processing.
type (
	// StatusReport is a breaker/switch status snapshot.
	StatusReport = topo.Report
	// TopologyProcessor maps statuses into the operating topology.
	TopologyProcessor = topo.Processor
)

// TrueStatusReport returns the untampered status report for the grid.
func TrueStatusReport(g *Grid) *StatusReport { return topo.TrueReport(g) }

// NewTopologyProcessor returns the EMS topology processor.
func NewTopologyProcessor(g *Grid) *TopologyProcessor { return topo.NewProcessor(g) }

// State estimation.
type (
	// Estimator is the WLS DC state estimator with bad-data detection. It
	// reuses the gain factorization of its last successful solve while the
	// measurement rows and weights are unchanged, and is not safe for
	// concurrent use.
	Estimator = se.Estimator
	// EstimateResult is one estimation outcome.
	EstimateResult = se.Result
)

// NewEstimator returns a WLS estimator for the grid and plan.
func NewEstimator(g *Grid, plan *Plan) *Estimator { return se.NewEstimator(g, plan) }

// Optimal power flow.
type (
	// OPFSolution is an optimal dispatch.
	OPFSolution = opf.Solution
)

// SolveOPF computes the exact minimum-cost dispatch (LP simplex). Pass nil
// loads to use the grid's existing loads.
func SolveOPF(g *Grid, t Topology, loads []float64) (*OPFSolution, error) {
	return opf.Solve(g, t, loads)
}

// OPFFeasibleWithin runs the paper's SMT OPF model: is there a dispatch with
// cost at most costCap?
func OPFFeasibleWithin(g *Grid, t Topology, loads []float64, costCap float64) (bool, []float64, error) {
	return opf.FeasibleWithin(g, t, loads, costCap, 0)
}

// SolveOPFShift solves OPF in the PTDF/LODF shift-factor formulation with an
// optional single-line outage (0 for none).
func SolveOPFShift(g *Grid, fac *Factors, outage int, loads []float64) (*OPFSolution, error) {
	return opf.SolveShift(g, fac, outage, loads)
}

// Distribution factors.
type (
	// Factors holds PTDFs for one grid and topology.
	Factors = dist.Factors
)

// NewFactors computes PTDFs for the grid under the topology.
func NewFactors(g *Grid, t Topology) (*Factors, error) { return dist.New(g, t) }

// LCDF computes a line closure distribution factor.
func LCDF(g *Grid, t Topology, monitored, closed int) (float64, error) {
	return dist.LCDF(g, t, monitored, closed)
}

// Attack modeling.
type (
	// Capability bounds the attacker's resources and abilities.
	Capability = attack.Capability
	// AttackVector is a concrete stealthy attack.
	AttackVector = attack.Vector
	// AttackModel is the SMT encoding of the attack constraints.
	AttackModel = attack.Model
)

// NewAttackModel builds the stealthy-attack constraint system at the given
// operating point.
func NewAttackModel(g *Grid, plan *Plan, c Capability, pf *PowerFlow) (*AttackModel, error) {
	return attack.NewModel(g, plan, c, pf)
}

// BuildAttackedMeasurements applies an attack vector's false data to an
// exact telemetry snapshot at the operating point.
func BuildAttackedMeasurements(g *Grid, plan *Plan, pf *PowerFlow, v *AttackVector) (*Measurements, error) {
	return attack.BuildAttackedMeasurements(g, plan, pf, v)
}

// Impact analysis (the paper's primary contribution).
type (
	// Analyzer runs the Fig. 2 impact-analysis loop.
	Analyzer = core.Analyzer
	// Report is the outcome of an analysis run.
	Report = core.Report
	// VerifyMode selects the OPF verification backend.
	VerifyMode = core.VerifyMode
	// Scenario is a randomized evaluation setting.
	Scenario = core.Scenario
	// ScenarioConfig controls scenario generation.
	ScenarioConfig = core.ScenarioConfig
)

// Verification backends.
const (
	VerifyLP    = core.VerifyLP
	VerifySMT   = core.VerifySMT
	VerifyShift = core.VerifyShift
)

// NewScenario derives a randomized evaluation scenario from a case.
func NewScenario(c Case, cfg ScenarioConfig) Scenario { return core.NewScenario(c, cfg) }

// MaxAchievableIncrease bisects for the largest achievable cost increase.
func MaxAchievableIncrease(a Analyzer, lo, hi, tol float64) (float64, error) {
	return core.MaxAchievableIncrease(a, lo, hi, tol)
}

// Test systems.
type (
	// Case is a named test system with its default measurement plan.
	Case = cases.Case
	// SynthConfig parameterizes synthetic system generation.
	SynthConfig = cases.SynthConfig
)

// Paper5Bus returns the paper's 5-bus system (Tables II/III).
func Paper5Bus() *Grid { return cases.Paper5Bus() }

// Paper5PlanCase1 returns the Case Study 1 measurement plan.
func Paper5PlanCase1() *Plan { return cases.Paper5PlanCase1() }

// Paper5PlanCase2 returns the Case Study 2 measurement plan.
func Paper5PlanCase2() *Plan { return cases.Paper5PlanCase2() }

// Paper5OperatingDispatch returns the case studies' operating dispatch.
func Paper5OperatingDispatch() []float64 { return cases.Paper5OperatingDispatch() }

// IEEE14Bus returns the IEEE 14-bus test system.
func IEEE14Bus() *Grid { return cases.IEEE14Bus() }

// Synthetic generates a deterministic synthetic test system.
func Synthetic(cfg SynthConfig) (*Grid, error) { return cases.Synthetic(cfg) }

// CaseByName returns a registry case (paper5, ieee14, synth30, synth57,
// synth118).
func CaseByName(name string) (Case, error) { return cases.ByName(name) }

// EvaluationCases returns the case names of the paper's scalability sweep.
func EvaluationCases() []string { return cases.EvaluationOrder() }

// Contingency analysis and security-constrained OPF.
type (
	// ContingencyViolation is one post-outage limit violation.
	ContingencyViolation = contingency.Violation
	// SCOPFSolution is a security-constrained dispatch.
	SCOPFSolution = contingency.Solution
)

// ScreenContingencies runs N-1 screening on the given pre-contingency flows.
func ScreenContingencies(g *Grid, t Topology, flows []float64) ([]ContingencyViolation, error) {
	return contingency.Screen(g, t, flows)
}

// N1Secure reports whether the flows pass N-1 screening.
func N1Secure(g *Grid, t Topology, flows []float64) (bool, error) {
	return contingency.Secure(g, t, flows)
}

// SolveSCOPF computes the cheapest N-1 secure dispatch.
func SolveSCOPF(g *Grid, t Topology, loads []float64, emergencyRating float64) (*SCOPFSolution, error) {
	return contingency.SolveSCOPF(g, t, loads, emergencyRating)
}

// Defense synthesis.
type (
	// DefenseSynthesizer derives minimal protection sets from the analyzer.
	DefenseSynthesizer = defense.Synthesizer
	// DefensePlan is a synthesized protection set.
	DefensePlan = defense.Plan
	// DefenseAsset is one protectable item.
	DefenseAsset = defense.Asset
)

// EMS pipeline.
type (
	// EMSPipeline is the operator-side telemetry-to-dispatch pipeline. It
	// keeps one Estimator across cycles and is not safe for concurrent use.
	EMSPipeline = ems.Pipeline
	// EMSCycleResult is one cycle's outcome.
	EMSCycleResult = ems.CycleResult
	// AGC is the automatic generation control loop.
	AGC = ems.AGC
)

// NewEMSPipeline returns an EMS instance.
func NewEMSPipeline(g *Grid, plan *Plan) *EMSPipeline { return ems.NewPipeline(g, plan) }

// NewAGC returns an AGC loop for the grid.
func NewAGC(g *Grid) *AGC { return ems.NewAGC(g) }

// SCADA transport.
type (
	// RTU serves one substation's telemetry over TCP.
	RTU = scada.RTU
	// SCADACenter polls RTUs and assembles system-wide telemetry.
	SCADACenter = scada.Center
	// MITM is the attacker's telemetry-rewriting proxy.
	MITM = scada.MITM
)

// NewRTU builds a substation RTU.
func NewRTU(g *Grid, plan *Plan, bus int) *RTU { return scada.NewRTU(g, plan, bus) }

// NewSCADACenter returns a control-center collector.
func NewSCADACenter(g *Grid, plan *Plan) *SCADACenter { return scada.NewCenter(g, plan) }

// NewMITM returns an attack proxy toward the RTU at upstream.
func NewMITM(g *Grid, plan *Plan, upstream string) *MITM { return scada.NewMITM(g, plan, upstream) }

// Resilience: retry/backoff, circuit breaking, partial collection, and
// deterministic network fault injection.
type (
	// SCADABackoff computes capped exponential retry delays with seeded
	// jitter.
	SCADABackoff = scada.Backoff
	// SCADACircuitBreaker trips after consecutive RTU poll failures.
	SCADACircuitBreaker = scada.CircuitBreaker
	// SCADACollectResult is the outcome of one resilient collection round.
	SCADACollectResult = scada.CollectResult
	// FaultInjector injects deterministic network faults into accepted
	// connections.
	FaultInjector = faultinject.Injector
	// FaultConfig is the probabilistic fault schedule.
	FaultConfig = faultinject.Config
	// Fault is one scripted per-connection fault.
	Fault = faultinject.Fault
	// FaultStats counts injected faults by class.
	FaultStats = faultinject.Stats
)

// Fault kinds for scripted injection.
const (
	FaultPass     = faultinject.Pass
	FaultDrop     = faultinject.Drop
	FaultDelay    = faultinject.Delay
	FaultCorrupt  = faultinject.Corrupt
	FaultTruncate = faultinject.Truncate
	FaultReset    = faultinject.Reset
)

// NewSCADABackoff returns the default backoff schedule with a seeded jitter
// stream (deterministic delays for a fixed seed).
func NewSCADABackoff(seed int64) *SCADABackoff { return scada.NewBackoff(seed) }

// NewFaultInjector returns a probabilistic fault injector; identical seeds
// replay identical fault traces.
func NewFaultInjector(seed int64, cfg FaultConfig) *FaultInjector {
	return faultinject.New(seed, cfg)
}

// NewScriptedFaultInjector returns an injector that applies faults[i] to
// the i-th accepted connection and passes afterwards.
func NewScriptedFaultInjector(faults ...Fault) *FaultInjector {
	return faultinject.NewScripted(faults...)
}

// ParseFaultSpec parses a fault specification such as
// "drop=0.2,delay=0.1:50ms,corrupt=0.1".
func ParseFaultSpec(s string) (FaultConfig, error) { return faultinject.ParseSpec(s) }

// Continuous operation: the supervised fleet-scale control loop.
type (
	// FleetConfig parameterizes a continuous-operation supervisor.
	FleetConfig = fleet.Config
	// FleetSupervisor drives telemetry -> SE -> OPF -> AGC cycles at a
	// fixed cadence against a real-TCP RTU fleet, with health tracking,
	// graceful degradation, a watchdog, a crash-resume journal, and the
	// online attack-impact monitor.
	FleetSupervisor = fleet.Supervisor
	// FleetSoakReport is a run's accumulated outcome: per-cycle verdicts,
	// latency percentiles, per-RTU health, and monitor checks.
	FleetSoakReport = fleet.SoakReport
	// FaultMatrix is a deterministic, cycle-keyed fleet-wide fault
	// schedule.
	FaultMatrix = fleet.Matrix
	// RTUFleet is a set of real-TCP RTUs with per-bus fault injectors.
	RTUFleet = fleet.TCPFleet
)

// NewRTUFleet brings up one TCP RTU per bus, each primed with the
// telemetry in z and wrapped in its own scripted fault injector.
func NewRTUFleet(g *Grid, plan *Plan, z *Measurements) (*RTUFleet, error) {
	return fleet.NewTCPFleet(g, plan, z)
}

// NewFleetSupervisor builds a fresh continuous-operation supervisor.
func NewFleetSupervisor(cfg FleetConfig) (*FleetSupervisor, error) { return fleet.New(cfg) }

// ResumeFleetSupervisor rebuilds a supervisor from its loop journal and
// continues the run where the previous process stopped.
func ResumeFleetSupervisor(cfg FleetConfig) (*FleetSupervisor, error) { return fleet.Resume(cfg) }

// ParseFaultMatrix parses a cycle-keyed fault-matrix specification such as
// "bus2:drop@3..5;bus4:delay:250ms@8..9" (empty input: nil matrix).
func ParseFaultMatrix(s string) (*FaultMatrix, error) { return fleet.ParseMatrix(s) }

// RandomFaultMatrix draws a seeded random fault matrix over the given bus
// and cycle range; identical seeds give identical schedules.
func RandomFaultMatrix(seed int64, buses, cycles int, rate float64, maxLen int) *FaultMatrix {
	return fleet.RandomMatrix(seed, buses, cycles, rate, maxLen)
}

// SMT engine (exposed for extension and for the ablation benchmarks).
type (
	// SMTSolver is the QF_LRA solver used as the verification engine.
	SMTSolver = smt.Solver
	// Formula is a propositional+arithmetic formula.
	Formula = smt.Formula
	// LinExpr is a linear expression over real variables.
	LinExpr = smt.LinExpr
)

// NewSMTSolver returns an empty SMT solver.
func NewSMTSolver() *SMTSolver { return smt.NewSolver() }

// Formula constructors, re-exported for building custom constraints on top
// of the attack or OPF encodings.
var (
	// BoolF wraps a boolean variable as a formula.
	BoolF = smt.Bool
	// NotF negates a formula.
	NotF = smt.Not
	// AndF conjoins formulas.
	AndF = smt.And
	// OrF disjoins formulas.
	OrF = smt.Or
	// ImpliesF builds an implication.
	ImpliesF = smt.Implies
	// IffF builds a biconditional.
	IffF = smt.Iff
	// AtomF builds an arithmetic atom with a float64 right-hand side.
	AtomF = smt.AtomFloat
	// NewLinExpr starts a linear expression.
	NewLinExpr = smt.NewLinExpr
)

// Arithmetic operators for AtomF.
const (
	OpLT = smt.OpLT
	OpLE = smt.OpLE
	OpEQ = smt.OpEQ
	OpGE = smt.OpGE
	OpGT = smt.OpGT
	OpNE = smt.OpNE
)

// Text input/output (paper Sec. III-F format).
type (
	// Input is a parsed problem instance.
	Input = textio.Input
)

// ParseInput reads the paper's input format.
func ParseInput(r io.Reader) (*Input, error) { return textio.Parse(r) }

// WriteInput renders an Input in the paper's format.
func WriteInput(w io.Writer, in *Input) error { return textio.Write(w, in) }

// WriteResult renders the framework's output file.
func WriteResult(w io.Writer, in *Input, found bool, v *AttackVector, baseline, attacked float64) error {
	return textio.WriteResult(w, in, found, v, baseline, attacked)
}
