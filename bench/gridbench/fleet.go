package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/fleet"
	"gridattack/internal/opf"
)

// fleet-118: the supervised EMS loop over 118 real-TCP RTUs, back to back,
// with the loop journal on. The first 60% of the cycles are fault-free, the
// next 24% run under a seeded random fault matrix, and the rest is a
// fault-free tail in which every quarantined RTU must be re-admitted and
// the dispatch must return bit for bit to the fault-free one.

const (
	fleetCase       = "synth118"
	cyclesPerSecond = 25
	faultRate       = 0.005 // outage starts per bus per cycle in the window
	faultMaxLen     = 5
)

type fleetRig struct {
	sup     *fleet.Supervisor
	rtus    *fleet.TCPFleet
	journal string
}

func (f *fleetRig) close() error {
	err := f.sup.Close()
	f.rtus.Close()
	return err
}

// faultWindow returns the cycles (from, to] that carry faults.
func faultWindow(cycles int) (from, to int) { return cycles * 3 / 5, cycles * 21 / 25 }

func faultMatrix(seed int64, buses, cycles int, short bool) *fleet.Matrix {
	if short {
		return nil // ten cycles leave no room for quarantine and re-admission
	}
	from, to := faultWindow(cycles)
	m := fleet.RandomMatrix(seed, buses, to-from, faultRate, faultMaxLen)
	if m == nil {
		return nil
	}
	for i := range m.Outages {
		m.Outages[i].From += from
		m.Outages[i].To += from
	}
	return m
}

func startFleet(cfg config, i, cycles int) (*fleetRig, error) {
	c, err := cases.ByName(fleetCase)
	if err != nil {
		return nil, err
	}
	g := c.Grid
	sol, err := opf.Solve(g, g.TrueTopology(), nil)
	if err != nil {
		return nil, err
	}
	pf, err := g.SolvePowerFlow(g.TrueTopology(), sol.Dispatch)
	if err != nil {
		return nil, err
	}
	z, err := c.Plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		return nil, err
	}
	rtus, err := fleet.NewTCPFleet(g, c.Plan, z)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(cfg.workdir, fmt.Sprintf("fleet-%d.journal", i))
	sup, err := fleet.New(fleet.Config{
		CaseName:          fleetCase,
		Grid:              g,
		Plan:              c.Plan,
		Fleet:             rtus,
		Matrix:            faultMatrix(cfg.seed, g.NumBuses(), cycles, cfg.short),
		OperatingDispatch: sol.Dispatch,
		ResidualThreshold: 1e-6,
		Timeout:           2 * time.Second,
		JournalPath:       journal,
	})
	if err != nil {
		rtus.Close()
		return nil, err
	}
	return &fleetRig{sup: sup, rtus: rtus, journal: journal}, nil
}

func runFleet(r *run) error {
	cfg := r.cfg
	cycles := cyclesPerSecond * cfg.seconds
	if cfg.short {
		cycles = 10
	}
	nSetup := 7
	if cfg.trace {
		nSetup = 1
	}
	rig, setupS, err := setupMedian(&r.speed, nSetup, func(i int) (*fleetRig, error) { return startFleet(cfg, i, cycles) },
		func(f *fleetRig) {
			f.close()
			os.Remove(f.journal)
		})
	if err != nil {
		return err
	}
	defer func() {
		rig.close()
		os.Remove(rig.journal)
	}()

	prefix, _ := faultWindow(cycles)
	byClass := map[string][]float64{}
	var all []float64
	var refDispatch, refSetpoint []float64
	var rep *fleet.SoakReport
	ctx := context.Background()
	alloc := r.startAlloc()
	for c := 1; c <= cycles; c++ {
		id := r.tr.begin("fleet.cycle", 0, fmt.Sprintf("c%d", c))
		t0 := time.Now()
		rep, err = rig.sup.Run(ctx, 1)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		r.attempted++
		outcome := rep.Outcomes[len(rep.Outcomes)-1]
		r.tr.end(id, outcome)
		class := "degraded"
		if outcome == fleet.OutcomeClean {
			class = "clean"
		}
		ms := float64(d.Nanoseconds()) / 1e6
		byClass[class] = append(byClass[class], ms)
		all = append(all, ms)
		if c == prefix {
			refDispatch, refSetpoint = rig.sup.Dispatch(), rig.sup.Setpoint()
		}
		r.speed.tick()
	}
	allocPerOp := alloc.perOp(cycles)
	checkFleet(r, rig, rep, cycles, refDispatch, refSetpoint)
	for class, d := range byClass {
		r.samples["cycles."+class] = len(d)
	}

	if cfg.trace {
		counts := countsOf(rep)
		r.set("fleet.clean", float64(counts.Clean), "count")
		r.set("fleet.degraded", float64(counts.Degraded), "count")
		r.set("fleet.held", float64(counts.Held), "count")
		r.set("fleet.attempts", float64(counts.Attempts), "count")
		r.set("fleet.trips", float64(counts.Trips), "count")
		r.set("fleet.recovered", float64(counts.Recovered), "count")
		for _, class := range []string{"clean", "degraded"} {
			if len(byClass[class]) > 0 {
				r.layer("fleet.cycle_p50_ms."+class, median(byClass[class]), "ms")
			}
		}
		pr, err := scenarioProblem(analyzeLP, fleetCase, 0)
		if err != nil {
			return err
		}
		return runCensus(r, pr)
	}
	r.set("setup_s", setupS, "s")
	r.set("alloc_mb_per_op", allocPerOp, "MB")
	tail, err := percentile(all, 95)
	if err != nil {
		if !cfg.short {
			return err
		}
		tail = sorted(all)[len(all)-1] // toy runs are too short for a p95
	}
	r.set("latency_ms", median(all), "ms")
	r.set("tail_ms", tail, "ms")
	return nil
}

func countsOf(rep *fleet.SoakReport) fleetCounts {
	c := fleetCounts{
		Clean:     rep.Counts[fleet.OutcomeClean],
		Degraded:  rep.Degraded(),
		Held:      rep.Held(),
		Attempts:  rep.Attempts,
		Recovered: rep.Recovered(),
	}
	for _, st := range rep.RTUs {
		c.Trips += st.Trips
	}
	return c
}

// checkFleet verifies the loop's outputs: every cycle accounted for and
// journaled, no watchdog or bad-data cycles, every tripped RTU re-admitted,
// the dispatch back bit for bit at the fault-free one, and, where pinned,
// the exact outcome counts and that dispatch's digest.
func checkFleet(r *run, rig *fleetRig, rep *fleet.SoakReport, cycles int, refDispatch, refSetpoint []float64) {
	if len(rep.Outcomes) != cycles {
		r.mismatch("fleet: %d outcomes for %d cycles", len(rep.Outcomes), cycles)
	}
	if n := rep.Counts[fleet.OutcomeWatchdog] + rep.Counts[fleet.OutcomeBadData]; n != 0 {
		r.mismatch("fleet: %d watchdog/bad-data cycles: %v", n, rep.Counts)
	}
	for _, st := range rig.sup.Health().Snapshot() {
		if st.State != fleet.Healthy || (st.Trips > 0 && st.Recoveries == 0) {
			r.mismatch("fleet: bus %d ended %v after %d trips and %d recoveries", st.Bus, st.State, st.Trips, st.Recoveries)
		}
	}
	if rig.sup.Mode() != fleet.ModeNormal {
		r.mismatch("fleet: final mode %v, want normal", rig.sup.Mode())
	}
	if !reflect.DeepEqual(rig.sup.Dispatch(), refDispatch) || !reflect.DeepEqual(rig.sup.Setpoint(), refSetpoint) {
		r.mismatch("fleet: post-recovery dispatch differs from the fault-free dispatch")
	}
	ref := digest(struct{ Dispatch, Setpoint []float64 }{refDispatch, refSetpoint})
	counts := countsOf(rep)
	key := fmt.Sprintf("%d/%d", r.cfg.seed, cycles)
	if r.exp.pinning {
		r.exp.Fleet.Dispatch = ref
		if !r.cfg.short {
			r.exp.Fleet.Counts[key] = counts
		}
	} else {
		if ref != r.exp.Fleet.Dispatch {
			r.mismatch("fleet: fault-free dispatch digest %s, pinned %s", ref, r.exp.Fleet.Dispatch)
		}
		if want, ok := r.exp.Fleet.Counts[key]; ok && want != counts {
			r.mismatch("fleet: outcome counts %+v, pinned %+v for seed/cycles %s", counts, want, key)
		}
	}
	j, _, recs, err := fleet.OpenJournal(rig.journal)
	if err != nil {
		r.mismatch("fleet: journal: %v", err)
		return
	}
	j.Close()
	if got := fleet.FoldRecords(recs).Outcomes; !reflect.DeepEqual(got, rep.Outcomes) {
		r.mismatch("fleet: journal folds to %d outcomes that differ from the live report", len(got))
	}
}

// scenarioProblem builds one problem of kind k: the system's scenario s.
func scenarioProblem(k analyzeKind, system string, s int) (problem, error) {
	k.systems, k.reps = []string{system}, nil
	texts, err := problemTexts(k, false)
	if err != nil {
		return problem{}, err
	}
	ps, err := parseProblems(k, texts[s:s+1])
	if err != nil {
		return problem{}, err
	}
	return ps[0], nil
}
