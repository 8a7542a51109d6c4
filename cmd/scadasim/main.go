// Command scadasim runs the end-to-end SCADA demonstration on the paper's
// 5-bus system: it brings up one RTU per substation, a control-center
// collector, and (optionally) the man-in-the-middle attacker on the
// compromised substations; then it executes EMS cycles and reports the
// operator's topology picture, state-estimation residual, and OPF cost with
// and without the attack.
//
// Usage:
//
//	scadasim                                  # honest run
//	scadasim -attack                          # Case Study 1 attack in the loop
//	scadasim -faults drop=0.3 -cycles 5       # telemetry under network chaos
//	scadasim -soak 200 -case synth118 -matrix random   # supervised soak run
//
// With -faults, every RTU listener is wrapped in a seedable fault injector
// (-seed) and the control center runs its resilient collection path: polls
// are retried with capped exponential backoff (-retries), tripped RTUs are
// circuit-broken, and the EMS consumes whatever telemetry survives via
// degraded-mode state estimation.
//
// With -soak N, the classic single-shot simulation is replaced by the
// supervised continuous-operation loop: N EMS cycles against a real-TCP
// fleet of one RTU per bus of the selected -case, under the cycle-keyed
// fault -matrix ("random" draws a seeded schedule), with health tracking,
// graceful degradation, a per-cycle -deadline watchdog, and an optional
// crash-resume -journal (an existing journal is resumed, not overwritten).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"time"

	"gridattack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scadasim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scadasim", flag.ContinueOnError)
	var (
		doAttack = fs.Bool("attack", false, "interpose the MITM attacker (Case Study 1 vector)")
		states   = fs.Bool("states", false, "allow state infection in the attack search")
		faults   = fs.String("faults", "", "fault-injection spec, e.g. drop=0.2,delay=0.1:50ms,corrupt=0.1,truncate=0.05,reset=0.05")
		seed     = fs.Int64("seed", 1, "seed for the fault injector and retry jitter (deterministic chaos)")
		retries  = fs.Int("retries", 2, "extra poll attempts per RTU after a failure")
		cycles   = fs.Int("cycles", 1, "number of EMS cycles to run")
		soak     = fs.Int("soak", 0, "run N supervised continuous-operation cycles instead of the single-shot simulation")
		caseName = fs.String("case", "paper5", "evaluation case for -soak (see EvaluationCases)")
		matrix   = fs.String("matrix", "", `cycle-keyed fault matrix for -soak, e.g. "bus2:drop@3..5;bus4:reset@8"; "random" draws a seeded schedule`)
		cadence  = fs.Duration("cadence", 0, "loop period between -soak cycle starts (0: back-to-back)")
		deadline = fs.Duration("deadline", 0, "per-cycle watchdog budget for -soak (0: no watchdog)")
		journal  = fs.String("journal", "", "crash-resume journal path for -soak (existing journals are resumed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *soak > 0 {
		if *doAttack || *faults != "" {
			return fmt.Errorf("-soak replaces -attack/-faults; schedule faults with -matrix instead")
		}
		return runSoak(stdout, *caseName, *soak, *matrix, *seed, *cadence, *deadline, *journal, *retries)
	}
	faultCfg, err := gridattack.ParseFaultSpec(*faults)
	if err != nil {
		return err
	}
	if *cycles < 1 {
		return fmt.Errorf("-cycles must be at least 1")
	}

	g := gridattack.Paper5Bus()
	plan := gridattack.Paper5PlanCase1()
	if *states {
		plan = gridattack.Paper5PlanCase2()
	}
	dispatch := gridattack.Paper5OperatingDispatch()
	pf, err := g.SolvePowerFlow(g.TrueTopology(), dispatch)
	if err != nil {
		return err
	}
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		return err
	}

	// Find the attack vector up front when requested.
	var vector *gridattack.AttackVector
	if *doAttack {
		capability := gridattack.Capability{MaxMeasurements: 8, MaxBuses: 3, States: *states, RequireTopologyChange: true}
		if *states {
			capability.MaxMeasurements = 12
		}
		model, err := gridattack.NewAttackModel(g, plan, capability, pf)
		if err != nil {
			return err
		}
		vector, err = model.FindVector()
		if err != nil {
			return err
		}
		if vector == nil {
			return fmt.Errorf("no stealthy attack vector exists in this scenario")
		}
		fmt.Fprintf(stdout, "attack vector: %v\n", vector)
	}

	// Bring up the SCADA fleet.
	compromised := map[int]bool{}
	if vector != nil {
		for _, bus := range vector.CompromisedBuses {
			compromised[bus] = true
		}
	}
	center := gridattack.NewSCADACenter(g, plan)
	center.Retries = *retries
	center.Backoff = gridattack.NewSCADABackoff(*seed)
	var injector *gridattack.FaultInjector
	if *faults != "" {
		injector = gridattack.NewFaultInjector(*seed, faultCfg)
	}
	type closer interface{ Close() error }
	var closers []closer
	defer func() {
		for _, c := range closers {
			_ = c.Close()
		}
	}()
	for bus := 1; bus <= g.NumBuses(); bus++ {
		rtu := gridattack.NewRTU(g, plan, bus)
		rtu.UpdateFromVector(z)
		var addr string
		if injector != nil {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			addr = rtu.Serve(injector.WrapListener(l))
		} else {
			var err error
			addr, err = rtu.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
		}
		closers = append(closers, rtu)
		if compromised[bus] {
			proxy := gridattack.NewMITM(g, plan, addr)
			proxy.SetVector(vector)
			proxyAddr, err := proxy.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			closers = append(closers, proxy)
			addr = proxyAddr
			fmt.Fprintf(stdout, "substation %d compromised (MITM at %s)\n", bus, addr)
		}
		center.Register(bus, addr)
	}

	// EMS cycles over the wire, resilient to whatever the injector does.
	pipeline := gridattack.NewEMSPipeline(g, plan)
	pipeline.ResidualThreshold = 1e-6
	verbose := *cycles > 1 || injector != nil
	var cycle *gridattack.EMSCycleResult
	var degradedCycles, heldCycles int
	for i := 1; i <= *cycles; i++ {
		col, err := center.CollectPartial()
		if err != nil {
			return err
		}
		cycle, err = pipeline.RunCycleResilient(col.Z, col.Report, dispatch, center.LastGood())
		if err != nil {
			return err
		}
		if cycle.Degraded || cycle.Stale {
			degradedCycles++
		}
		if !cycle.Redispatched {
			heldCycles++
		}
		if verbose {
			fmt.Fprintf(stdout, "cycle %d: attempts=%d failed=%v degraded=%v stale=%v redispatched=%v residual=%.2e\n",
				i, col.Attempts, col.Failed, cycle.Degraded, cycle.Stale, cycle.Redispatched, cycle.Estimate.Residual)
		}
	}
	if injector != nil {
		st := injector.Stats()
		fmt.Fprintf(stdout, "injected faults over %d connections: drop=%d delay=%d corrupt=%d truncate=%d reset=%d\n",
			st.Conns, st.Drops, st.Delays, st.Corrupts, st.Truncates, st.Resets)
		fmt.Fprintf(stdout, "degraded cycles: %d of %d (dispatch held on %d)\n", degradedCycles, *cycles, heldCycles)
		for _, bus := range center.Registered() {
			if trips := center.Breaker(bus).Trips(); trips > 0 {
				fmt.Fprintf(stdout, "substation %d breaker: %d trip(s)\n", bus, trips)
			}
		}
	}
	honest, err := gridattack.SolveOPF(g, g.TrueTopology(), nil)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "mapped topology: %v lines (true: %d)\n", cycle.Topology.Size(), g.NumLines())
	fmt.Fprintf(stdout, "state-estimation residual: %.2e (bad data: %v)\n", cycle.Estimate.Residual, cycle.Estimate.BadData)
	fmt.Fprintf(stdout, "operator load picture:")
	for _, ld := range g.Loads {
		fmt.Fprintf(stdout, " bus%d=%.3f", ld.Bus, cycle.LoadEstimates[ld.Bus-1])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "OPF cost from telemetry: $%.2f (attack-free optimum $%.2f, %+.2f%%)\n",
		cycle.Dispatch.Cost, honest.Cost, 100*(cycle.Dispatch.Cost-honest.Cost)/honest.Cost)

	// Drive AGC to the new set-points and report the true cost paid.
	agc := gridattack.NewAGC(g)
	traj, err := agc.Trajectory(dispatch, cycle.Dispatch.Dispatch, 100)
	if err != nil {
		return err
	}
	final := traj[len(traj)-1]
	fmt.Fprintf(stdout, "AGC converged in %d steps; dispatch cost now $%.2f\n",
		len(traj)-1, pipeline.TrueCost(final))
	return nil
}

// runSoak drives the supervised continuous-operation loop: a real-TCP fleet
// of one RTU per bus, the cycle-keyed fault matrix applied fleet-wide, and
// a full cycle-outcome report at the end.
func runSoak(stdout io.Writer, caseName string, cycles int, matrixSpec string, seed int64,
	cadence, deadline time.Duration, journalPath string, retries int) error {
	c, err := gridattack.CaseByName(caseName)
	if err != nil {
		return err
	}
	g, plan := c.Grid, c.Plan
	sol, err := gridattack.SolveOPF(g, g.TrueTopology(), nil)
	if err != nil {
		return err
	}
	op := sol.Dispatch
	pf, err := g.SolvePowerFlow(g.TrueTopology(), op)
	if err != nil {
		return err
	}
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		return err
	}
	fl, err := gridattack.NewRTUFleet(g, plan, z)
	if err != nil {
		return err
	}
	defer fl.Close()

	var m *gridattack.FaultMatrix
	if matrixSpec == "random" {
		// Faults stop at 90% of the run so every quarantine window closes
		// and probation completes before the end-of-run health report.
		m = gridattack.RandomFaultMatrix(seed, g.NumBuses(), cycles*9/10, 0.002, 5)
	} else if m, err = gridattack.ParseFaultMatrix(matrixSpec); err != nil {
		return err
	}

	cfg := gridattack.FleetConfig{
		CaseName:          caseName,
		Grid:              g,
		Plan:              plan,
		Fleet:             fl,
		Matrix:            m,
		OperatingDispatch: op,
		ResidualThreshold: 1e-6,
		Cadence:           cadence,
		Deadline:          deadline,
		Retries:           retries,
		JournalPath:       journalPath,
	}
	newSup := gridattack.NewFleetSupervisor
	if journalPath != "" {
		newSup = gridattack.ResumeFleetSupervisor
	}
	sup, err := newSup(cfg)
	if err != nil {
		return err
	}
	rep, err := sup.Run(context.Background(), cycles)
	if err != nil {
		sup.Close()
		return err
	}

	if rep.Resumed > 0 {
		fmt.Fprintf(stdout, "resumed from journal after cycle %d\n", rep.Resumed)
	}
	fmt.Fprintf(stdout, "soak: %d cycles over %d RTUs (%s), %d poll attempts\n",
		rep.Cycles, fl.Size(), caseName, rep.Attempts)
	labels := make([]string, 0, len(rep.Counts))
	for k := range rep.Counts {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	fmt.Fprintf(stdout, "outcomes:")
	for _, k := range labels {
		fmt.Fprintf(stdout, " %s=%d", k, rep.Counts[k])
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "degraded cycles: %d (dispatch held on %d)\n", rep.Degraded(), rep.Held())
	fmt.Fprintf(stdout, "opf: memo hits=%d cold solves=%d re-optimized=%d (%d pivots)\n",
		rep.OPF.MemoHits, rep.OPF.Cold, rep.OPF.Reopts, rep.OPF.Pivots)
	fmt.Fprintf(stdout, "cycle latency: p50=%v p90=%v p99=%v max=%v\n",
		rep.LatencyP50, rep.LatencyP90, rep.LatencyP99, rep.LatencyMax)
	for _, st := range rep.RTUs {
		if st.Trips > 0 {
			fmt.Fprintf(stdout, "bus %d: state=%v trips=%d recoveries=%d\n",
				st.Bus, st.State, st.Trips, st.Recoveries)
		}
	}
	for _, mon := range rep.Monitor {
		fmt.Fprintf(stdout, "monitor at cycle %d: %d verdict(s), cached=%v\n",
			mon.Cycle, len(mon.Verdicts), mon.Cached)
	}
	fmt.Fprintf(stdout, "final mode: %v; dispatch cost $%.2f\n",
		sup.Mode(), gridattack.NewEMSPipeline(g, plan).TrueCost(sup.Dispatch()))
	return sup.Close()
}
