package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gridattack/internal/core"
	"gridattack/internal/ems"
	"gridattack/internal/fleet"
	"gridattack/internal/opf"
	"gridattack/internal/scada"
	"gridattack/internal/serve"
	"gridattack/internal/textio"
)

// The layer census gives a traced run a span for every layer in layerSpans,
// so each workload reports every per-layer metric with a measured value. A
// layer the workload's own operations already called is left alone; any
// other layer is timed by calling its public entry point on the workload's
// own grid (pr), a few times. A per-layer number is therefore always "this
// layer's cost on this workload's inputs", comparable between commits for
// the same workload.

const censusReps = 5

func runCensus(r *run, pr problem) error {
	tr := r.tr
	missing := func(spans ...string) bool {
		for _, s := range spans {
			if !tr.has(s) {
				return true
			}
		}
		return false
	}
	if missing("textio.parse", "serve.parse", "core.cachekey") {
		if err := censusParse(tr, pr); err != nil {
			return fmt.Errorf("census parse: %w", err)
		}
	}
	if missing("opf.solve", "attack.encode", "attack.search", "opf.verify", "attack.block") {
		// Two iterations reach every call of the loop, including a block.
		a := pr.a
		a.MaxIterations = 2
		a.Verify = core.VerifyLP
		if _, err := replay(tr, "census/"+pr.id, a); err != nil {
			return fmt.Errorf("census replay: %w", err)
		}
	}
	if missing("scada.collect", "ems.cycle.memo_miss", "ems.cycle.memo_hit", "ems.agc") {
		if err := censusEMS(tr, pr); err != nil {
			return fmt.Errorf("census ems: %w", err)
		}
	}
	if missing("core.journal_append", "fleet.journal_append") {
		if err := censusJournals(tr, pr, filepath.Join(r.cfg.workdir, "census")); err != nil {
			return fmt.Errorf("census journals: %w", err)
		}
	}
	return nil
}

// renderRequest renders a problem the way a client of the service sends it:
// the paper's text format inside a JSON job request.
func renderRequest(a core.Analyzer, targets []float64) (string, []byte, error) {
	var buf bytes.Buffer
	in := &textio.Input{Grid: a.Grid, Plan: a.Plan, Capability: a.Capability, MinIncreasePercent: targets[0]}
	if err := textio.Write(&buf, in); err != nil {
		return "", nil, err
	}
	body, err := json.Marshal(serve.JobRequest{Input: buf.String(), Targets: targets})
	return buf.String(), body, err
}

// timeParse times the three request-decoding layers on one request body:
// textio parsing, the service's full request validation, and the cache key.
func timeParse(tr *tracer, req, text string, body []byte) (*serve.ParsedJob, error) {
	var err error
	if err = tr.timed("textio.parse", 0, req, func() error {
		_, err := textio.Parse(strings.NewReader(text))
		return err
	}); err != nil {
		return nil, err
	}
	var p *serve.ParsedJob
	if err = tr.timed("serve.parse", 0, req, func() (err error) {
		p, err = serve.ParseJobRequest(body, serve.Limits{})
		return err
	}); err != nil {
		return nil, err
	}
	tr.timed("core.cachekey", 0, req, func() error {
		core.CacheKey(p.In.Grid, p.In.Plan, p.Capability(), core.KeyConfig{Targets: p.Targets, Verify: p.Mode})
		return nil
	})
	return p, nil
}

func censusParse(tr *tracer, pr problem) error {
	text, body, err := renderRequest(pr.a, []float64{pr.a.TargetIncreasePercent})
	if err != nil {
		return err
	}
	for i := 0; i < censusReps; i++ {
		if _, err := timeParse(tr, "census/"+pr.id, text, body); err != nil {
			return err
		}
	}
	return nil
}

// censusEMS stands up a real-TCP RTU fleet for the grid and times one
// control-center cycle's layers: collection, the EMS pipeline with an
// empty and with a warm OPF memo, and an AGC step.
func censusEMS(tr *tracer, pr problem) error {
	g, plan := pr.a.Grid, pr.a.Plan
	base, err := opf.Solve(g, g.TrueTopology(), nil)
	if err != nil {
		return err
	}
	pf, err := g.SolvePowerFlow(g.TrueTopology(), base.Dispatch)
	if err != nil {
		return err
	}
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		return err
	}
	fl, err := fleet.NewTCPFleet(g, plan, z)
	if err != nil {
		return err
	}
	defer fl.Close()
	center := scada.NewCenter(g, plan)
	center.Persistent = true
	center.Timeout = 2 * time.Second
	fl.Register(center)
	defer center.Close()

	req := "census/" + pr.id
	var col *scada.CollectResult
	for i := 0; i < censusReps; i++ {
		if err := tr.timed("scada.collect", 0, req, func() (err error) {
			col, err = center.CollectPartial()
			return err
		}); err != nil {
			return err
		}
		if len(col.Failed) > 0 {
			return fmt.Errorf("collection lost RTUs %v", col.Failed)
		}
	}
	pipe := ems.NewPipeline(g, plan)
	pipe.ResidualThreshold = 1e-6
	var res *ems.CycleResult
	cycle := func(span string) error {
		return tr.timed(span, 0, req, func() (err error) {
			res, err = pipe.RunCycleResilient(col.Z, col.Report, base.Dispatch, center.LastGood())
			return err
		})
	}
	for i := 0; i < censusReps; i++ {
		pipe.Memo = ems.NewOPFMemo(8)
		if err := cycle("ems.cycle.memo_miss"); err != nil {
			return err
		}
	}
	for i := 0; i < censusReps; i++ {
		if err := cycle("ems.cycle.memo_hit"); err != nil {
			return err
		}
	}
	agc := ems.NewAGC(g)
	for i := 0; i < censusReps; i++ {
		if err := tr.timed("ems.agc", 0, req, func() error {
			_, err := agc.Step(base.Dispatch, res.Dispatch.Dispatch)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// censusJournals times fsync'd appends to the analyzer's checkpoint journal
// and the fleet's loop journal, in the run's work directory.
func censusJournals(tr *tracer, pr problem, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	req := "census/" + pr.id
	g := pr.a.Grid
	cj, err := core.CreateJournal(filepath.Join(dir, "core.journal"), core.JournalConfig{Buses: g.NumBuses(), Lines: g.NumLines(), TargetPercent: pr.a.TargetIncreasePercent})
	if err != nil {
		return err
	}
	defer cj.Close()
	fj, err := fleet.CreateJournal(filepath.Join(dir, "fleet.journal"), fleet.JournalConfig{Case: pr.system, Buses: g.NumBuses(), Lines: g.NumLines()})
	if err != nil {
		return err
	}
	defer fj.Close()
	for i := 1; i <= censusReps; i++ {
		if err := tr.timed("core.journal_append", 0, req, func() error { return cj.AppendIter(i, nil, 0, false) }); err != nil {
			return err
		}
		if err := tr.timed("fleet.journal_append", 0, req, func() error {
			return fj.AppendCycle(&fleet.JournalRecord{Cycle: i, Outcome: fleet.OutcomeClean})
		}); err != nil {
			return err
		}
	}
	if err := cj.Close(); err != nil {
		return err
	}
	return fj.Close()
}
