package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

// newHarness builds a paper5 TCP fleet pinned at the paper's operating point
// and a supervisor config matching the repo's fault-test idiom (tight
// timeouts, deterministic backoff, exact telemetry).
func newHarness(t *testing.T) (Config, *measure.Vector, []float64) {
	t.Helper()
	c, err := cases.ByName("paper5")
	if err != nil {
		t.Fatal(err)
	}
	op := cases.Paper5OperatingDispatch()
	pf, err := c.Grid.SolvePowerFlow(c.Grid.TrueTopology(), op)
	if err != nil {
		t.Fatal(err)
	}
	z, err := c.Plan.FromPowerFlow(c.Grid, pf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewTCPFleet(c.Grid, c.Plan, z)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return Config{
		CaseName:          "paper5",
		Grid:              c.Grid,
		Plan:              c.Plan,
		Fleet:             fl,
		OperatingDispatch: op,
		ResidualThreshold: 1e-6,
		Timeout:           2 * time.Second,
	}, z, op
}

func mustMatrix(t *testing.T, spec string) *Matrix {
	t.Helper()
	m, err := ParseMatrix(spec)
	if err != nil {
		t.Fatalf("ParseMatrix(%q): %v", spec, err)
	}
	return m
}

func runSoak(t *testing.T, cfg Config, cycles int) (*Supervisor, *SoakReport) {
	t.Helper()
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sup.Run(context.Background(), cycles)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sup, rep
}

func assertFloatsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if !floatsEqual(got, want) {
		t.Fatalf("%s: got %v, want %v (bitwise)", what, got, want)
	}
}

// cycleDisps returns the Disp sub-record of every cycle record in the
// journal at path, in record order; nil where a cycle journaled none.
func cycleDisps(t *testing.T, path string) []*DispState {
	t.Helper()
	_, _, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*DispState
	for _, rec := range recs {
		if rec.Kind == recCycle {
			if rec.Cycle != len(out)+1 {
				t.Fatalf("%s: record of cycle %d where cycle %d belongs", path, rec.Cycle, len(out)+1)
			}
			out = append(out, rec.Disp)
		}
	}
	return out
}

// assertSameDisps fails unless got journals a Disp sub-record in exactly
// the cycles want does, with the same dispatch and set-point float bits:
// every cycle's dispatch, not only the last, must not depend on how the
// run was interrupted.
func assertSameDisps(t *testing.T, what string, got, want []*DispState) {
	t.Helper()
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d cycle records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		switch {
		case (g == nil) != (w == nil):
			t.Fatalf("%s: cycle %d journals a dispatch: %v, uninterrupted run: %v", what, i+1, g != nil, w != nil)
		case w != nil && (!bitsEqual(g.Dispatch, w.Dispatch) || !bitsEqual(g.Setpoint, w.Setpoint)):
			t.Fatalf("%s: cycle %d dispatch %v set-point %v, uninterrupted run %v / %v", what, i+1, g.Dispatch, g.Setpoint, w.Dispatch, w.Setpoint)
		}
	}
}

// TestSoakSmokeWithFaults drives 35 cycles against a real-TCP paper5 fleet
// under a four-outage fault matrix: every faulted RTU trips, quarantines,
// recovers, and is re-admitted, and the final dispatch is bit-identical to an
// unfaulted run of the same length.
func TestSoakSmokeWithFaults(t *testing.T) {
	cfgA, _, _ := newHarness(t)
	supA, repA := runSoak(t, cfgA, 35)
	defer supA.Close()

	cfgB, _, _ := newHarness(t)
	cfgB.Matrix = mustMatrix(t, "bus2:drop@3..5;bus4:truncate@8..9;bus3:reset@14..16;bus5:corrupt@20")
	cfgB.JournalPath = filepath.Join(t.TempDir(), "soak.journal")
	supB, repB := runSoak(t, cfgB, 35)

	if len(repB.Outcomes) != 35 || repB.Cycles != 35 {
		t.Fatalf("outcomes %d, cycles %d, want 35", len(repB.Outcomes), repB.Cycles)
	}
	if n := repB.Counts[OutcomeClean] + repB.Counts[OutcomeDegraded]; n != 35 {
		t.Fatalf("counts = %v: clean+degraded = %d, want 35", repB.Counts, n)
	}
	if repB.Held() != 0 {
		t.Fatalf("held cycles = %d, want 0 (faults only degrade)", repB.Held())
	}
	if repB.Attempts <= repA.Attempts {
		t.Errorf("faulted attempts %d <= clean attempts %d: retries never fired", repB.Attempts, repA.Attempts)
	}
	if supB.Mode() != ModeNormal {
		t.Errorf("final mode = %v, want normal", supB.Mode())
	}

	stats := supB.Health().Snapshot()
	for _, st := range stats {
		if st.State != Healthy {
			t.Errorf("bus %d final state = %v, want healthy", st.Bus, st.State)
		}
	}
	want := map[int]struct{ trips, recoveries int }{
		1: {0, 0}, 2: {1, 1}, 3: {1, 1}, 4: {0, 0}, 5: {0, 0},
	}
	for _, st := range stats {
		w := want[st.Bus]
		if st.Trips != w.trips || st.Recoveries != w.recoveries {
			t.Errorf("bus %d: trips=%d recoveries=%d, want %d/%d", st.Bus, st.Trips, st.Recoveries, w.trips, w.recoveries)
		}
	}
	if got := repB.Recovered(); got != 2 {
		t.Errorf("Recovered() = %d, want 2", got)
	}

	assertFloatsEqual(t, "post-recovery dispatch", supB.Dispatch(), supA.Dispatch())
	assertFloatsEqual(t, "post-recovery setpoint", supB.Setpoint(), supA.Setpoint())

	if err := supB.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, recs, err := OpenJournal(cfgB.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	st := FoldRecords(recs)
	if !reflect.DeepEqual(st.Outcomes, repB.Outcomes) {
		t.Fatalf("journaled outcomes diverge from report:\n%v\n%v", st.Outcomes, repB.Outcomes)
	}
	if st.Disp == nil || !floatsEqual(st.Disp.Dispatch, supB.Dispatch()) {
		t.Fatalf("journaled dispatch %+v != live %v", st.Disp, supB.Dispatch())
	}
}

// TestKillAndResume kills a faulted soak mid-quarantine (via the test hook)
// and resumes it from the journal: the stitched 30-cycle outcome sequence,
// every cycle's journaled dispatch, the final dispatch, and the per-RTU
// health table must all be bit-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	const spec = "bus2:drop@3..5;bus3:reset@14..16"

	cfgA, _, _ := newHarness(t)
	cfgA.Matrix = mustMatrix(t, spec)
	cfgA.JournalPath = filepath.Join(t.TempDir(), "a.journal")
	supA, repA := runSoak(t, cfgA, 30)
	supA.Close()

	cfgB, _, _ := newHarness(t)
	cfgB.Matrix = mustMatrix(t, spec)
	cfgB.JournalPath = filepath.Join(t.TempDir(), "b.journal")
	// Hard-kill after cycle 15 — mid-way through bus3's outage, with its
	// breaker at two strikes, so resume must restore in-flight fault state.
	cfgB.TestHook = func(c int) bool { return c != 15 }
	supB, _ := runSoak(t, cfgB, 30)
	if supB.Cycle() != 15 {
		t.Fatalf("killed at cycle %d, want 15", supB.Cycle())
	}
	supB.Close()

	// A config that disagrees with the journal must be rejected.
	cfgBad := cfgB
	cfgBad.TestHook = nil
	cfgBad.Matrix = nil
	if _, err := Resume(cfgBad); !errors.Is(err, ErrResume) {
		t.Fatalf("Resume with wrong matrix: %v, want ErrResume", err)
	}

	cfgB.TestHook = nil
	supC, err := Resume(cfgB)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	rep, err := supC.Run(context.Background(), 15)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if rep.Resumed != 15 || supC.Cycle() != 30 {
		t.Fatalf("resumed=%d cycle=%d, want 15/30", rep.Resumed, supC.Cycle())
	}

	assertFloatsEqual(t, "resumed dispatch", supC.Dispatch(), supA.Dispatch())
	assertFloatsEqual(t, "resumed setpoint", supC.Setpoint(), supA.Setpoint())
	if !reflect.DeepEqual(supC.Health().Snapshot(), supA.Health().Snapshot()) {
		t.Fatalf("health tables diverge:\n%+v\n%+v", supC.Health().Snapshot(), supA.Health().Snapshot())
	}
	supC.Close()

	_, _, recs, err := OpenJournal(cfgB.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	st := FoldRecords(recs)
	if !reflect.DeepEqual(st.Outcomes, repA.Outcomes) {
		t.Fatalf("stitched outcome sequence diverges from uninterrupted run:\n%v\n%v", st.Outcomes, repA.Outcomes)
	}
	assertSameDisps(t, "stitched journal", cycleDisps(t, cfgB.JournalPath), cycleDisps(t, cfgA.JournalPath))
}

// TestCrashPointResume resumes the TestKillAndResume soak from every state a
// crash can leave its journal in — each record cut at its start, one byte
// in, and one byte short of its newline (every third record under -short).
// Each resumed run must finish with the uninterrupted run's outcome
// sequence, every cycle's journaled dispatch, and its final dispatch,
// set-point and health table.
func TestCrashPointResume(t *testing.T) {
	const spec = "bus2:drop@3..5;bus3:reset@14..16"
	cfgA, _, _ := newHarness(t)
	cfgA.Matrix = mustMatrix(t, spec)
	cfgA.JournalPath = filepath.Join(t.TempDir(), "a.journal")
	supA, repA := runSoak(t, cfgA, 30)
	supA.Close()
	full, err := os.ReadFile(cfgA.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	wantDisps := cycleDisps(t, cfgA.JournalPath)

	every := 1
	if testing.Short() {
		every = 3
	}
	cfg, _, _ := newHarness(t)
	cfg.Matrix = mustMatrix(t, spec)
	cfg.JournalPath = filepath.Join(t.TempDir(), "cut.journal")
	for n, start := 0, 0; start < len(full); n++ {
		end := start + bytes.IndexByte(full[start:], '\n') + 1
		if n%every == 0 {
			for _, cut := range []int{start, start + 1, end - 1} {
				if err := os.WriteFile(cfg.JournalPath, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				sup, err := Resume(cfg)
				if err != nil {
					t.Fatalf("cut at byte %d: Resume: %v", cut, err)
				}
				if _, err := sup.Run(context.Background(), 30-sup.Cycle()); err != nil {
					t.Fatalf("cut at byte %d: Run: %v", cut, err)
				}
				sup.Close()
				_, _, recs, err := OpenJournal(cfg.JournalPath)
				if err != nil {
					t.Fatal(err)
				}
				if got := FoldRecords(recs).Outcomes; !reflect.DeepEqual(got, repA.Outcomes) {
					t.Fatalf("cut at byte %d: outcomes diverge:\n%v\n%v", cut, got, repA.Outcomes)
				}
				what := fmt.Sprintf("cut at byte %d", cut)
				assertSameDisps(t, what, cycleDisps(t, cfg.JournalPath), wantDisps)
				assertFloatsEqual(t, what+": dispatch", sup.Dispatch(), supA.Dispatch())
				assertFloatsEqual(t, what+": setpoint", sup.Setpoint(), supA.Setpoint())
				if !reflect.DeepEqual(sup.Health().Snapshot(), supA.Health().Snapshot()) {
					t.Fatalf("%s: health tables diverge:\n%+v\n%+v", what, sup.Health().Snapshot(), supA.Health().Snapshot())
				}
			}
		}
		start = end
	}
}

// TestWatchdogOverrun injects a 400ms write delay against a 100ms cycle
// deadline: the slow cycle is recorded as watchdog-held, its late result is
// discarded (the dispatch trajectory matches a run that never had the
// cycle), and the loop recovers to clean cycles immediately after.
func TestWatchdogOverrun(t *testing.T) {
	cfgA, _, _ := newHarness(t)
	supA, _ := runSoak(t, cfgA, 5)
	defer supA.Close()

	cfgB, _, _ := newHarness(t)
	cfgB.Matrix = mustMatrix(t, "bus2:delay:400ms@2")
	cfgB.Deadline = 100 * time.Millisecond
	supB, repB := runSoak(t, cfgB, 6)
	defer supB.Close()

	wantOutcomes := []string{OutcomeClean, OutcomeWatchdog, OutcomeClean, OutcomeClean, OutcomeClean, OutcomeClean}
	if !reflect.DeepEqual(repB.Outcomes, wantOutcomes) {
		t.Fatalf("outcomes = %v, want %v", repB.Outcomes, wantOutcomes)
	}
	if repB.Counts[OutcomeWatchdog] != 1 {
		t.Fatalf("watchdog count = %d, want 1", repB.Counts[OutcomeWatchdog])
	}
	for _, st := range supB.Health().Snapshot() {
		if st.State != Healthy || st.Trips != 0 {
			t.Errorf("bus %d: state=%v trips=%d, want healthy/0 (watchdog rolls health back)", st.Bus, st.State, st.Trips)
		}
	}
	// The overrun cycle was a no-op: 6 cycles with one held == 5 clean cycles.
	assertFloatsEqual(t, "dispatch after discarded cycle", supB.Dispatch(), supA.Dispatch())
}

// TestBadDataFreezeAndRecovery tampers one RTU's telemetry for eight cycles:
// the bad-data detector trips every cycle, the ladder freezes after three,
// the dispatch is held bit-identical throughout the episode, and after the
// telemetry turns honest the ladder walks down freeze -> last-good ->
// partial -> normal at three cycles per rung while AGC re-converges onto the
// same dispatch as a never-tampered run.
func TestBadDataFreezeAndRecovery(t *testing.T) {
	const cycles = 45

	cfgA, _, _ := newHarness(t)
	supA, _ := runSoak(t, cfgA, cycles)
	defer supA.Close()

	cfgB, z, _ := newHarness(t)
	fl := cfgB.Fleet
	tampered := z.Clone()
	for i := range tampered.Values {
		if tampered.Present[i] {
			tampered.Values[i] += 0.3
		}
	}
	dispAt := make(map[int][]float64)
	var supB *Supervisor
	cfgB.TestHook = func(c int) bool {
		dispAt[c] = supB.Dispatch()
		switch c {
		case 8:
			fl.RTU(2).UpdateFromVector(tampered)
		case 16:
			fl.RTU(2).UpdateFromVector(z)
		}
		return true
	}
	var err error
	supB, err = New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer supB.Close()
	repB, err := supB.Run(context.Background(), cycles)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var wantOutcomes []string
	add := func(outcome string, n int) {
		for i := 0; i < n; i++ {
			wantOutcomes = append(wantOutcomes, outcome)
		}
	}
	add(OutcomeClean, 8)
	// Tampered collections also poison the last-good cache, so the freeze
	// rung keeps seeing bad data until honest telemetry returns.
	add(OutcomeBadData, 8)
	add(OutcomeHeld, 3)     // freeze rung on restored last-good
	add(OutcomeStale, 3)    // descended to last-good
	add(OutcomeDegraded, 3) // descended to partial (live telemetry again)
	add(OutcomeClean, cycles-25)
	if !reflect.DeepEqual(repB.Outcomes, wantOutcomes) {
		t.Fatalf("outcomes:\n got %v\nwant %v", repB.Outcomes, wantOutcomes)
	}

	// The dispatch never moves while telemetry is untrusted.
	for c := 9; c <= 19; c++ {
		assertFloatsEqual(t, "held dispatch", dispAt[c], dispAt[8])
	}
	// After recovery AGC re-converges onto the honest set-point exactly.
	assertFloatsEqual(t, "re-converged dispatch", supB.Dispatch(), supA.Dispatch())
	assertFloatsEqual(t, "re-converged setpoint", supB.Setpoint(), supA.Setpoint())
	if supB.Mode() != ModeNormal {
		t.Errorf("final mode = %v, want normal", supB.Mode())
	}
}

// TestMonitorWarmIdentity flips a genuine line-6 outage in and out of the
// fleet's telemetry: each topology drift triggers the online monitor, the
// repeated snapshot is served from the fingerprint cache, and the cached
// verdicts are identical to a from-scratch core.RunLadder on the same
// snapshot — the verdict cache is a pure speedup, never a semantic change.
func TestMonitorWarmIdentity(t *testing.T) {
	cfg, z1, op := newHarness(t)
	g := cfg.Grid
	fl := cfg.Fleet

	// Telemetry consistent with line 6 (bus 3 - bus 4) genuinely out.
	var closedIDs []int
	for _, ln := range g.Lines {
		if ln.ID != 6 {
			closedIDs = append(closedIDs, ln.ID)
		}
	}
	outTopo := grid.NewTopology(closedIDs)
	pf2, err := g.SolvePowerFlow(outTopo, op)
	if err != nil {
		t.Fatal(err)
	}
	z2, err := cfg.Plan.FromPowerFlow(g, pf2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	setOutage := func(open bool) {
		zz := z1
		if open {
			zz = z2
		}
		for bus := 1; bus <= g.NumBuses(); bus++ {
			fl.RTU(bus).UpdateFromVector(zz)
		}
		fl.RTU(3).SetStatus(6, !open) // line 6's breaker is owned by bus 3
	}

	cfg.MonitorTargets = []float64{3}
	cfg.MonitorCapability = attack.Capability{
		MaxMeasurements:       12,
		MaxBuses:              3,
		RequireTopologyChange: true,
	}
	cfg.TestHook = func(c int) bool {
		switch c {
		case 4:
			setOutage(true)
		case 9:
			setOutage(false)
		case 14:
			setOutage(true) // same snapshot as cycle 5 -> cache hit
		}
		return true
	}
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	rep, err := sup.Run(context.Background(), 20)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if len(rep.Monitor) != 3 {
		t.Fatalf("monitor ran %d times, want 3 (one per drift)", len(rep.Monitor))
	}
	m0, m1, m2 := rep.Monitor[0], rep.Monitor[1], rep.Monitor[2]
	if m0.Cached || m1.Cached || !m2.Cached {
		t.Fatalf("cached flags = %v/%v/%v, want false/false/true", m0.Cached, m1.Cached, m2.Cached)
	}
	if m0.Fingerprint == m1.Fingerprint {
		t.Fatal("distinct topologies share a fingerprint")
	}
	if m2.Fingerprint != m0.Fingerprint {
		t.Fatal("repeated snapshot fingerprint diverged")
	}
	if !reflect.DeepEqual(m2.Verdicts, m0.Verdicts) {
		t.Fatalf("cached verdicts diverge:\n%+v\n%+v", m2.Verdicts, m0.Verdicts)
	}
	if hits, misses := sup.Monitor().Stats(); hits != 1 || misses != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}

	// From-scratch identity: rebuild the exact snapshot the monitor reports
	// it analyzed and run the ladder cold.
	gg := g.Clone()
	for i := range gg.Lines {
		in := false
		for _, id := range m0.ClosedLines {
			if id == gg.Lines[i].ID {
				in = true
			}
		}
		gg.Lines[i].InService = in
	}
	for i := range gg.Loads {
		p := m0.Loads[gg.Loads[i].Bus-1]
		gg.Loads[i].P = p
		if gg.Loads[i].MaxP < p {
			gg.Loads[i].MaxP = p
		}
		if gg.Loads[i].MinP > p {
			gg.Loads[i].MinP = p
		}
	}
	an := &core.Analyzer{
		Grid:              gg,
		Plan:              cfg.Plan,
		Capability:        cfg.MonitorCapability,
		OperatingDispatch: op,
		Verify:            core.VerifyLP,
	}
	reports, err := an.RunLadder(cfg.MonitorTargets)
	if err != nil {
		t.Fatalf("from-scratch RunLadder: %v", err)
	}
	if len(reports) != len(m0.Verdicts) {
		t.Fatalf("%d reports vs %d verdicts", len(reports), len(m0.Verdicts))
	}
	for i, r := range reports {
		v := m0.Verdicts[i]
		if r.Found != v.Found || r.Exhausted != v.Exhausted ||
			r.BaselineCost != v.BaselineCost || r.AttackedCost != v.AttackedCost {
			t.Errorf("target %.1f%%: from-scratch {found %v exhausted %v base %v attacked %v} vs monitor %+v",
				cfg.MonitorTargets[i], r.Found, r.Exhausted, r.BaselineCost, r.AttackedCost, v)
		}
	}
}
