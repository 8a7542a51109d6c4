package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/ems"
	"gridattack/internal/faultinject"
	"gridattack/internal/grid"
	"gridattack/internal/journal"
	"gridattack/internal/measure"
	"gridattack/internal/opf"
	"gridattack/internal/scada"
	"gridattack/internal/topo"
)

// ErrResume reports a journal that cannot continue the configured soak.
var ErrResume = errors.New("fleet: journal does not match configuration")

// Cycle outcome labels — the verdict vocabulary of the loop journal, the
// soak report, and the kill-and-resume equivalence check.
const (
	// OutcomeClean: full telemetry, clean estimate, dispatch re-optimized.
	OutcomeClean = "clean"
	// OutcomeDegraded: some RTUs dark, but the degraded estimate carried the
	// cycle and the dispatch was re-optimized.
	OutcomeDegraded = "degraded"
	// OutcomeStale: the cycle ran on last-good telemetry; the dispatch was
	// re-optimized but is flagged best-effort.
	OutcomeStale = "stale"
	// OutcomeHeld: the dispatch was held — islanded estimate, SE failure, or
	// the freeze rung.
	OutcomeHeld = "held"
	// OutcomeBadData: bad-data detection tripped; telemetry discarded,
	// dispatch held.
	OutcomeBadData = "baddata"
	// OutcomeWatchdog: the cycle overran its deadline; the last safe
	// dispatch was held and the late result discarded.
	OutcomeWatchdog = "watchdog"
)

// Config parameterizes a supervisor.
type Config struct {
	CaseName string
	Grid     *grid.Grid
	Plan     *measure.Plan

	// Fleet provides the RTU addresses and per-bus injectors. The
	// supervisor does not own it; close it separately.
	Fleet *TCPFleet

	// Matrix is the deterministic fault schedule (nil: no faults).
	Matrix *Matrix

	// OperatingDispatch is the generation dispatch the fleet's telemetry was
	// produced at — the load-separation reference and the operating point
	// the monitor's attack model observes. Nil selects the attack-free OPF
	// optimum on the true topology.
	OperatingDispatch []float64

	// ResidualThreshold configures the estimator's bad-data test (0: the
	// chi-square test).
	ResidualThreshold float64

	// Cadence is the loop period: each cycle starts Cadence after the
	// previous one began (0: back-to-back, the soak-test default).
	Cadence time.Duration
	// Deadline is the per-cycle watchdog budget; a cycle that exceeds it is
	// recorded as watchdog-held while the straggler is drained and its late
	// result discarded (0: no watchdog).
	Deadline time.Duration

	// Timeout bounds each RTU poll (0: 2s). Retries is the number of extra
	// poll attempts (0: 2; negative: none).
	Timeout time.Duration
	Retries int

	// QuarantineAfter trips both the circuit breaker and the health machine
	// after that many consecutive failures (0: 3). QuarantineWindow is how
	// many cycles a tripped breaker rejects polls before half-opening
	// (0: 2). ReadmitAfter is the probation length in successful polls
	// (0: 2). DeescalateAfter is the ladder hysteresis (0: 3).
	// FreezeAfterBadData is how many consecutive bad-data cycles escalate
	// to the freeze rung (0: 3).
	QuarantineAfter    int
	QuarantineWindow   int
	ReadmitAfter       int
	DeescalateAfter    int
	FreezeAfterBadData int

	// JournalPath enables the crash-resume loop journal ("" disables it).
	JournalPath string

	// MonitorTargets are the cost-increase percentages the online monitor
	// probes on topology drift (nil: monitor disabled). MonitorCapability is
	// the attacker model the monitor assumes; the budgets bound each ladder
	// run.
	MonitorTargets       []float64
	MonitorCapability    attack.Capability
	MonitorMaxIterations int
	MonitorTimeout       time.Duration

	// TestHook, when non-nil, runs after each cycle's journal append;
	// returning false aborts the loop on the spot with no shutdown
	// bookkeeping — the in-process stand-in for a hard kill.
	TestHook func(cycle int) bool
}

func (c *Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

func (c *Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c *Config) quarantineAfter() int {
	if c.QuarantineAfter <= 0 {
		return 3
	}
	return c.QuarantineAfter
}

func (c *Config) quarantineWindow() int {
	if c.QuarantineWindow <= 0 {
		return 2
	}
	return c.QuarantineWindow
}

func (c *Config) freezeAfterBadData() int {
	if c.FreezeAfterBadData <= 0 {
		return 3
	}
	return c.FreezeAfterBadData
}

// Supervisor owns one continuous-operation loop: the collection center, the
// EMS pipeline, AGC, the health tracker, the degradation ladder, the
// watchdog, the loop journal, and the online attack-impact monitor.
type Supervisor struct {
	cfg     Config
	grid    *grid.Grid
	plan    *measure.Plan
	center  *scada.Center
	pipe    *ems.Pipeline
	agc     *ems.AGC
	health  *HealthTracker
	ladder  *Ladder
	monitor *Monitor
	journal *Journal

	clockCycle int64 // logical breaker-clock value (current cycle number)

	cycle      int       // last completed cycle, 1-based
	dispatch   []float64 // what is on the machines now
	setpoint   []float64 // what AGC is ramping toward
	opDispatch []float64 // fixed operating-point dispatch for load separation
	badStreak  int
	prevTopo   grid.Topology // drift baseline: last mapped topology

	// Supervisor-side copies of exec-owned state, safe to read while a
	// cycle is in flight (used for watchdog-held records).
	curMode    Mode
	curCleaner int

	// Last journaled state, for delta encoding.
	lastDisp  *DispState
	lastTele  *TeleState
	lastFleet *FleetState

	report *SoakReport
}

// New builds a supervisor and computes the operating point: the attack-free
// OPF dispatch on the true topology, which seeds the machines, the AGC
// set-point, and the load-separation reference. A JournalPath starts a
// fresh journal (truncating any previous one); use Resume to continue one.
func New(cfg Config) (*Supervisor, error) {
	s, err := newCore(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.JournalPath != "" {
		j, err := CreateJournal(cfg.JournalPath, s.journalConfig())
		if err != nil {
			return nil, err
		}
		s.journal = j
	}
	return s, nil
}

func newCore(cfg Config) (*Supervisor, error) {
	if cfg.Grid == nil || cfg.Plan == nil {
		return nil, fmt.Errorf("fleet: config needs Grid and Plan")
	}
	s := &Supervisor{
		cfg:    cfg,
		grid:   cfg.Grid,
		plan:   cfg.Plan,
		ladder: &Ladder{DeescalateAfter: cfg.DeescalateAfter},
		report: newSoakReport(),
	}
	s.center = scada.NewCenter(cfg.Grid, cfg.Plan)
	s.center.Timeout = cfg.timeout()
	s.center.Retries = cfg.retries()
	bo := scada.NewBackoff(1)
	bo.Base, bo.Max = time.Millisecond, 5*time.Millisecond
	s.center.Backoff = bo
	s.center.BreakerThreshold = cfg.quarantineAfter()
	// Breakers run on the logical cycle clock: OpenFor is measured in
	// nanoseconds = cycles, so quarantine windows are deterministic per
	// cycle regardless of wall-clock pacing.
	s.center.BreakerOpenFor = time.Duration(cfg.quarantineWindow())
	s.center.BreakerClock = func() time.Time { return time.Unix(0, s.clockCycle) }
	s.center.Persistent = true
	if cfg.Fleet != nil {
		cfg.Fleet.Register(s.center)
	}
	s.health = NewHealthTracker(s.center.Registered())
	s.health.QuarantineAfter = cfg.quarantineAfter()
	s.health.ReadmitAfter = cfg.ReadmitAfter

	// Quiet cycles are kept cheap by the solution memo: a hit replays the
	// exact result of the solver that answered the snapshot first (a cold
	// solve on complete telemetry, a re-optimization from the grid's
	// baseline on degraded telemetry; both depend on the snapshot alone),
	// so the loop's bit-identity guarantees (kill-and-resume,
	// post-recovery convergence) hold with or without it.
	s.pipe = ems.NewPipeline(cfg.Grid, cfg.Plan)
	s.pipe.ResidualThreshold = cfg.ResidualThreshold
	s.pipe.Memo = ems.NewOPFMemo(8)
	s.agc = ems.NewAGC(cfg.Grid)

	if len(cfg.OperatingDispatch) > 0 {
		if len(cfg.OperatingDispatch) != cfg.Grid.NumBuses() {
			return nil, fmt.Errorf("fleet: operating dispatch length %d, want %d", len(cfg.OperatingDispatch), cfg.Grid.NumBuses())
		}
		s.opDispatch = append([]float64(nil), cfg.OperatingDispatch...)
	} else {
		loads := make([]float64, cfg.Grid.NumBuses())
		for _, l := range cfg.Grid.Loads {
			loads[l.Bus-1] += l.P
		}
		sol, err := opf.Solve(cfg.Grid, cfg.Grid.TrueTopology(), loads)
		if err != nil {
			return nil, fmt.Errorf("fleet: operating-point OPF: %w", err)
		}
		s.opDispatch = append([]float64(nil), sol.Dispatch...)
	}
	s.dispatch = append([]float64(nil), s.opDispatch...)
	s.setpoint = append([]float64(nil), s.opDispatch...)
	s.prevTopo = cfg.Grid.TrueTopology()

	if len(cfg.MonitorTargets) > 0 {
		s.monitor = NewMonitor(cfg.Grid, cfg.Plan, cfg.MonitorTargets)
		s.monitor.Capability = cfg.MonitorCapability
		s.monitor.MaxIterations = cfg.MonitorMaxIterations
		s.monitor.QueryTimeout = cfg.MonitorTimeout
	}
	return s, nil
}

// journalConfig fingerprints this supervisor's verdict-relevant
// configuration.
func (s *Supervisor) journalConfig() JournalConfig {
	return JournalConfig{
		Case:            s.cfg.CaseName,
		Buses:           s.grid.NumBuses(),
		Lines:           s.grid.NumLines(),
		MatrixSpec:      s.cfg.Matrix.Spec(),
		Retries:         s.cfg.retries(),
		QuarantineAfter: s.cfg.quarantineAfter(),
		ReadmitAfter:    s.health.readmitAfter(),
		DeescalateAfter: s.ladder.deescalateAfter(),
		FreezeAfterBad:  s.cfg.freezeAfterBadData(),
		Targets:         s.cfg.MonitorTargets,
		Operating:       s.opDispatch,
	}
}

// Resume rebuilds a supervisor from the loop journal at cfg.JournalPath and
// continues as if never interrupted: dispatch, set-point, ladder rung,
// bad-data streak, per-RTU health and breaker state, last-good telemetry,
// and the monitor's verdict cache are all restored from the folded records.
// A file without a complete header is no journal: Resume then starts fresh,
// exactly like New.
func Resume(cfg Config) (*Supervisor, error) {
	if cfg.JournalPath == "" {
		return nil, fmt.Errorf("fleet: Resume needs a JournalPath")
	}
	j, jcfg, recs, err := OpenJournal(cfg.JournalPath)
	if errors.Is(err, journal.ErrNoJournal) {
		return New(cfg)
	}
	if err != nil {
		return nil, err
	}
	s, err := newCore(cfg)
	if err != nil {
		j.Close()
		return nil, err
	}
	want, err1 := json.Marshal(s.journalConfig())
	got, err2 := json.Marshal(jcfg)
	if err1 != nil || err2 != nil || string(want) != string(got) {
		j.Close()
		return nil, fmt.Errorf("%w: journal %s vs config %s", ErrResume, got, want)
	}
	s.journal = j
	st := FoldRecords(recs)
	s.cycle = st.LastCycle
	s.clockCycle = int64(st.LastCycle)
	s.ladder.Restore(st.Mode, st.Cleaner)
	s.curMode, s.curCleaner = st.Mode, st.Cleaner
	s.badStreak = st.BadStreak
	if st.Disp != nil {
		s.dispatch = append([]float64(nil), st.Disp.Dispatch...)
		s.setpoint = append([]float64(nil), st.Disp.Setpoint...)
		s.lastDisp = st.Disp
	}
	if st.Tele != nil {
		s.center.RestoreLastGood(teleVector(st.Tele, s.plan.M()))
		s.center.RestoreStatuses(st.Tele.Statuses)
		s.lastTele = st.Tele
		// The drift baseline is the topology the operator last mapped; the
		// last-known statuses are exactly that picture.
		closed := make([]int, 0, len(st.Tele.Statuses))
		for id, c := range st.Tele.Statuses {
			if c {
				closed = append(closed, id)
			}
		}
		s.prevTopo = grid.NewTopology(closed)
	}
	if st.Fleet != nil {
		s.health.Restore(st.Fleet.Health)
		for _, br := range st.Fleet.Breakers {
			until := time.Time{}
			if br.OpenUntil != 0 {
				until = time.Unix(0, br.OpenUntil)
			}
			s.center.Breaker(br.Bus).Restore(br.Failures, br.Trips, until)
		}
		s.lastFleet = st.Fleet
	}
	if s.monitor != nil {
		s.monitor.Seed(st.MonitorCache)
	}
	s.report.Resumed = st.LastCycle
	return s, nil
}

// Cycle returns the last completed cycle number.
func (s *Supervisor) Cycle() int { return s.cycle }

// Dispatch returns a copy of the dispatch currently on the machines.
func (s *Supervisor) Dispatch() []float64 { return append([]float64(nil), s.dispatch...) }

// Setpoint returns a copy of the current AGC set-point.
func (s *Supervisor) Setpoint() []float64 { return append([]float64(nil), s.setpoint...) }

// Mode returns the ladder's current rung.
func (s *Supervisor) Mode() Mode { return s.ladder.Mode() }

// Health returns the health tracker (read-only between Run calls).
func (s *Supervisor) Health() *HealthTracker { return s.health }

// Monitor returns the online monitor (nil when disabled).
func (s *Supervisor) Monitor() *Monitor { return s.monitor }

// Center exposes the collection center for harness wiring (register extra
// RTUs, inspect breakers). Do not touch it while Run is in flight.
func (s *Supervisor) Center() *scada.Center { return s.center }

// Close releases the journal and the center's persistent connections. The
// shutdown is graceful by construction: every completed cycle is already
// fsync'd in the journal, so there is nothing to flush.
func (s *Supervisor) Close() error {
	var err error
	if s.journal != nil {
		err = s.journal.Close()
		s.journal = nil
	}
	if cerr := s.center.Close(); err == nil {
		err = cerr
	}
	return err
}

// execResult is everything one cycle's execution hands back to the
// supervisor.
type execResult struct {
	outcome      string
	mode         Mode
	cleaner      int
	badStreak    int
	failed       int
	skipped      int
	attempts     int
	redispatched bool
	dispatch     []float64
	setpoint     []float64
	drift        bool
	hasTopo      bool
	mapped       grid.Topology
	loads        []float64
	err          error
}

// applyFaults re-scripts every injector for the coming cycle: a bus the
// matrix faults gets the fault repeated for every poll attempt (so the whole
// round fails), everyone else is reset to pass-through. Faulted buses also
// get their persistent connection invalidated — injector faults are
// per-connection, so the fault must see a fresh dial.
func (s *Supervisor) applyFaults(cycle int) {
	if s.cfg.Matrix == nil || s.cfg.Fleet == nil {
		return
	}
	attempts := s.cfg.retries() + 1
	for bus, inj := range s.cfg.Fleet.Injectors {
		f, ok := s.cfg.Matrix.FaultsFor(bus, cycle)
		if !ok {
			inj.Reset()
			// A connection established during an outage may carry a
			// lingering per-connection fault (a delay sticks to the dialed
			// conn for its lifetime); drop it so the clean cycle dials clean.
			if _, was := s.cfg.Matrix.FaultsFor(bus, cycle-1); was {
				s.center.Invalidate(bus)
			}
			continue
		}
		script := make([]faultinject.Fault, attempts)
		for i := range script {
			script[i] = f
		}
		inj.Reset(script...)
		s.center.Invalidate(bus)
	}
}

// lastStatusReport assembles a full breaker-status report from the center's
// last-known statuses — the telemetry picture of the last-good rung.
func (s *Supervisor) lastStatusReport() (*topo.Report, error) {
	last := s.center.LastStatuses()
	statuses := make([]topo.Status, 0, s.grid.NumLines())
	for _, ln := range s.grid.Lines {
		statuses = append(statuses, topo.Status{Line: ln.ID, Closed: last[ln.ID]})
	}
	return topo.NewReport(statuses)
}

// exec runs one cycle body. It owns the center, pipeline, health tracker,
// and ladder while in flight; the supervisor reads only its own copies
// until the result lands.
func (s *Supervisor) exec(cycle int) *execResult {
	r := &execResult{badStreak: s.badStreak}
	col, err := s.center.CollectPartial()
	if err != nil {
		r.err = err
		return r
	}
	r.failed, r.skipped, r.attempts = len(col.Failed), len(col.Skipped), col.Attempts
	failedSet := make(map[int]bool, len(col.Failed))
	for _, bus := range col.Failed {
		failedSet[bus] = true
	}
	skippedSet := make(map[int]bool, len(col.Skipped))
	for _, bus := range col.Skipped {
		skippedSet[bus] = true
	}
	registered := s.center.Registered()
	for _, bus := range registered {
		switch {
		case skippedSet[bus]:
			s.health.Skipped(bus)
		case failedSet[bus]:
			s.health.Failure(bus)
		default:
			s.health.Success(bus)
		}
	}

	// The cycle runs at the higher of the current rung and what collection
	// demands (escalation is immediate); the ladder itself is advanced only
	// once the cycle's true outcome is known, so a tampered-but-complete
	// collection cannot masquerade as a "cleaner" cycle and melt a freeze.
	demand := DemandFor(len(col.Failed), len(registered))
	cur := s.ladder.Mode()
	execMode := cur
	if demand > execMode {
		execMode = demand
	}
	runAt := func(m Mode) (*ems.CycleResult, error) {
		z, report := col.Z, col.Report
		if m >= ModeLastGood {
			z = s.center.LastGood()
			var rerr error
			report, rerr = s.lastStatusReport()
			if rerr != nil {
				return nil, rerr
			}
		}
		// Load separation uses the fixed operating dispatch the telemetry
		// was generated at, not the evolving machine dispatch — see
		// DESIGN.md, "Continuous operation".
		return s.pipe.RunCycleResilient(z, report, s.opDispatch, s.center.LastGood())
	}
	res, err := runAt(execMode)
	escalated := false
	if err != nil && !errors.Is(err, ems.ErrBadData) && execMode < ModeLastGood {
		// Within-cycle escalation: the partial estimate failed outright, so
		// retry immediately on last-good telemetry rather than losing the
		// cycle.
		execMode = ModeLastGood
		escalated = true
		res, err = runAt(execMode)
	}
	finish := func(final Mode) {
		s.ladder.Observe(final)
		r.mode, r.cleaner = s.ladder.Mode(), s.ladder.Cleaner()
	}
	switch {
	case errors.Is(err, ems.ErrBadData):
		r.badStreak++
		r.outcome = OutcomeBadData
		final := cur
		if demand > final {
			final = demand
		}
		if r.badStreak >= s.cfg.freezeAfterBadData() {
			final = ModeFreeze
		}
		finish(final)
		return r
	case err != nil:
		// SE failed even on last-good telemetry: nothing trustworthy to
		// dispatch on. Freeze and hold.
		r.outcome = OutcomeHeld
		finish(ModeFreeze)
		return r
	}
	r.badStreak = 0
	if escalated {
		finish(ModeLastGood)
	} else {
		finish(demand)
	}
	r.hasTopo = true
	r.mapped = res.Topology
	r.loads = res.LoadEstimates
	r.drift = !topoEqual(s.grid, res.Topology, s.prevTopo)
	if execMode == ModeFreeze || !res.Redispatched {
		r.outcome = OutcomeHeld
		return r
	}
	r.setpoint = append([]float64(nil), res.Dispatch.Dispatch...)
	next, err := s.agc.Step(s.dispatch, r.setpoint)
	if err != nil {
		r.err = err
		return r
	}
	r.dispatch = next
	r.redispatched = true
	switch {
	case execMode >= ModeLastGood:
		r.outcome = OutcomeStale
	case execMode == ModePartial || col.Degraded():
		r.outcome = OutcomeDegraded
	default:
		r.outcome = OutcomeClean
	}
	return r
}

func topoEqual(g *grid.Grid, a, b grid.Topology) bool {
	for _, ln := range g.Lines {
		if a.Contains(ln.ID) != b.Contains(ln.ID) {
			return false
		}
	}
	return true
}

// Run executes up to cycles supervision cycles (beyond any already resumed)
// and returns the accumulated soak report. Cancelling ctx stops the loop at
// the next cycle boundary — a graceful shutdown; every completed cycle is
// already journaled and fsync'd.
func (s *Supervisor) Run(ctx context.Context, cycles int) (*SoakReport, error) {
	for n := 0; n < cycles; n++ {
		select {
		case <-ctx.Done():
			s.finishReport()
			return s.report, nil
		default:
		}
		cycle := s.cycle + 1
		s.applyFaults(cycle)
		s.clockCycle = int64(cycle)

		// Snapshot exec-owned state so a watchdog-discarded straggler can be
		// rolled back and the loop continues exactly as a resume would.
		ladderMode, ladderCleaner := s.ladder.Mode(), s.ladder.Cleaner()
		healthSnap := s.health.Snapshot()
		breakerSnap := s.breakerRecs(true)

		start := time.Now()
		ch := make(chan *execResult, 1)
		go func() { ch <- s.exec(cycle) }()

		var res *execResult
		overran := false
		if s.cfg.Deadline > 0 {
			timer := time.NewTimer(s.cfg.Deadline)
			select {
			case res = <-ch:
				timer.Stop()
			case <-timer.C:
				overran = true
			}
		} else {
			res = <-ch
		}

		if overran {
			// Hold the last safe dispatch and journal the overrun now, from
			// supervisor-side copies only (the exec goroutine still owns the
			// ladder, health tracker, and center).
			s.cycle = cycle
			rec := &JournalRecord{
				Cycle: cycle, Outcome: OutcomeWatchdog,
				Mode: s.curMode, Cleaner: s.curCleaner, BadStreak: s.badStreak,
			}
			if err := s.appendCycle(rec); err != nil {
				<-ch
				return s.report, err
			}
			s.report.observe(OutcomeWatchdog, time.Since(start))
			// Drain the straggler, discard its result, and roll exec-owned
			// state back to the pre-cycle snapshot.
			<-ch
			s.ladder.Restore(ladderMode, ladderCleaner)
			s.health.Restore(healthSnap)
			s.restoreBreakers(breakerSnap)
			if s.lastTele != nil {
				s.center.RestoreLastGood(teleVector(s.lastTele, s.plan.M()))
				s.center.RestoreStatuses(s.lastTele.Statuses)
			}
			if !s.hookAndPace(cycle, start) {
				return s.report, nil
			}
			continue
		}

		if res.err != nil {
			return s.report, fmt.Errorf("fleet: cycle %d: %w", cycle, res.err)
		}
		s.cycle = cycle
		s.curMode, s.curCleaner = res.mode, res.cleaner
		s.badStreak = res.badStreak
		if res.redispatched {
			s.dispatch = res.dispatch
			s.setpoint = res.setpoint
		}
		if res.hasTopo {
			s.prevTopo = res.mapped
		}
		rec := &JournalRecord{
			Cycle: cycle, Outcome: res.outcome,
			Mode: res.mode, Cleaner: res.cleaner, BadStreak: res.badStreak,
			Failed: res.failed, Skipped: res.skipped,
		}
		s.attachDeltas(rec)
		if err := s.appendCycle(rec); err != nil {
			return s.report, err
		}
		s.report.observe(res.outcome, time.Since(start))
		s.report.Attempts += res.attempts

		if res.drift && s.monitor != nil {
			mres, err := s.monitor.Check(cycle, res.mapped, res.loads, s.opDispatch)
			if err != nil {
				return s.report, err
			}
			if mres != nil {
				s.report.Monitor = append(s.report.Monitor, *mres)
				if s.journal != nil {
					if err := s.journal.AppendMonitor(cycle, mres.Fingerprint, mres.Verdicts); err != nil {
						return s.report, err
					}
				}
			}
		}

		if !s.hookAndPace(cycle, start) {
			return s.report, nil
		}
	}
	s.finishReport()
	return s.report, nil
}

// hookAndPace runs the test hook and the cadence sleep; false aborts the
// loop (simulated kill).
func (s *Supervisor) hookAndPace(cycle int, start time.Time) bool {
	if s.cfg.TestHook != nil && !s.cfg.TestHook(cycle) {
		s.finishReport()
		return false
	}
	if s.cfg.Cadence > 0 {
		if rest := s.cfg.Cadence - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
	}
	return true
}

func (s *Supervisor) appendCycle(rec *JournalRecord) error {
	if s.journal == nil {
		s.report.Outcomes = append(s.report.Outcomes, rec.Outcome)
		return nil
	}
	if err := s.journal.AppendCycle(rec); err != nil {
		return err
	}
	s.report.Outcomes = append(s.report.Outcomes, rec.Outcome)
	return nil
}

// attachDeltas adds Disp/Tele/Fleet sub-records for whatever state changed
// since the last journaled cycle.
func (s *Supervisor) attachDeltas(rec *JournalRecord) {
	disp := &DispState{
		Dispatch: append([]float64(nil), s.dispatch...),
		Setpoint: append([]float64(nil), s.setpoint...),
	}
	if !dispEqual(disp, s.lastDisp) {
		rec.Disp = disp
		s.lastDisp = disp
	}
	lg := s.center.LastGood()
	tele := &TeleState{
		Values:   lg.Values,
		Present:  lg.Present,
		Statuses: s.center.LastStatuses(),
	}
	if !teleEqual(tele, s.lastTele) {
		rec.Tele = tele
		s.lastTele = tele
	}
	fl := &FleetState{Health: s.health.Snapshot(), Breakers: s.breakerRecs(false)}
	if !fleetEqual(fl, s.lastFleet) {
		rec.Fleet = fl
		s.lastFleet = fl
	}
}

// breakerRecs snapshots the per-bus circuit breakers; with all set, zero
// (untouched) breakers are included too, for exact rollback.
func (s *Supervisor) breakerRecs(all bool) []BreakerRec {
	var out []BreakerRec
	for _, bus := range s.center.Registered() {
		failures, trips, until := s.center.Breaker(bus).Snapshot()
		var u int64
		if !until.IsZero() {
			u = until.UnixNano()
		}
		if !all && failures == 0 && trips == 0 && u == 0 {
			continue
		}
		out = append(out, BreakerRec{Bus: bus, Failures: failures, Trips: trips, OpenUntil: u})
	}
	return out
}

func (s *Supervisor) restoreBreakers(recs []BreakerRec) {
	for _, br := range recs {
		until := time.Time{}
		if br.OpenUntil != 0 {
			until = time.Unix(0, br.OpenUntil)
		}
		s.center.Breaker(br.Bus).Restore(br.Failures, br.Trips, until)
	}
}

func dispEqual(a, b *DispState) bool {
	return b != nil && floatsEqual(a.Dispatch, b.Dispatch) && floatsEqual(a.Setpoint, b.Setpoint)
}

func teleEqual(a, b *TeleState) bool {
	if b == nil || !floatsEqual(a.Values, b.Values) || len(a.Present) != len(b.Present) {
		return false
	}
	for i := range a.Present {
		if a.Present[i] != b.Present[i] {
			return false
		}
	}
	if len(a.Statuses) != len(b.Statuses) {
		return false
	}
	for k, v := range a.Statuses {
		if bv, ok := b.Statuses[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func fleetEqual(a, b *FleetState) bool {
	if b == nil || len(a.Health) != len(b.Health) || len(a.Breakers) != len(b.Breakers) {
		return false
	}
	for i := range a.Health {
		if a.Health[i] != b.Health[i] {
			return false
		}
	}
	for i := range a.Breakers {
		if a.Breakers[i] != b.Breakers[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// teleVector rebuilds a measurement vector from a journaled TeleState.
func teleVector(t *TeleState, m int) *measure.Vector {
	v := measure.NewVector(m)
	copy(v.Values, t.Values)
	copy(v.Present, t.Present)
	return v
}
