package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/core"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

// Monitor is the online attack-impact watcher. Whenever the topology
// processor reports drift (the mapped topology differs from the previous
// cycle's), the supervisor hands the monitor the drifted snapshot — mapped
// topology, estimated loads, operating dispatch — and the monitor re-runs
// the threshold ladder (core.RunLadder) on it, telling the
// operator which cost-increase targets just became reachable.
//
// Verdict cache contract: results are keyed by a fingerprint of everything
// that determines the verdict (closed lines, load bits, dispatch bits,
// targets, capability, effort budgets). A fingerprint hit replays the
// journaled verdicts verbatim — a pure speedup, trivially identical to
// re-running, because the ladder is deterministic for a fixed snapshot. A
// miss runs the full ladder cold and journals the verdicts for the next hit
// (including after crash-resume). The cache never extrapolates across
// fingerprints.
type Monitor struct {
	Grid       *grid.Grid
	Plan       *measure.Plan
	Capability attack.Capability

	// Targets are the cost-increase percentages the ladder probes,
	// ascending (nil disables the monitor).
	Targets []float64

	// Effort budgets forwarded to the analyzer (all fingerprinted).
	MaxIterations int
	MaxConflicts  int64
	QueryTimeout  time.Duration

	cache  map[string][]MonitorVerdict
	hits   int
	misses int
}

// NewMonitor returns a monitor for the grid; an empty targets list disables
// it (Check returns nil).
func NewMonitor(g *grid.Grid, plan *measure.Plan, targets []float64) *Monitor {
	return &Monitor{
		Grid:    g,
		Plan:    plan,
		Targets: targets,
		cache:   make(map[string][]MonitorVerdict),
	}
}

// Seed preloads the verdict cache from journaled monitor records (resume).
func (m *Monitor) Seed(cache map[string][]MonitorVerdict) {
	for fp, v := range cache {
		m.cache[fp] = v
	}
}

// Stats returns fingerprint cache hits and misses.
func (m *Monitor) Stats() (hits, misses int) { return m.hits, m.misses }

// Fingerprint hashes a snapshot: everything that determines the ladder's
// verdicts and nothing that doesn't.
func (m *Monitor) Fingerprint(mapped grid.Topology, loads, dispatch []float64) string {
	h := sha256.New()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	h.Write([]byte("fleet-monitor-v1\x00"))
	for _, ln := range m.Grid.Lines {
		if mapped.Contains(ln.ID) {
			put(uint64(ln.ID))
		}
	}
	put(0xffff_ffff_ffff_ffff) // section separator
	for _, l := range loads {
		putF(l)
	}
	put(0xffff_ffff_ffff_ffff)
	for _, d := range dispatch {
		putF(d)
	}
	put(0xffff_ffff_ffff_ffff)
	for _, t := range m.Targets {
		putF(t)
	}
	put(uint64(int64(m.Capability.MaxMeasurements)))
	put(uint64(int64(m.Capability.MaxBuses)))
	if m.Capability.States {
		put(1)
	} else {
		put(0)
	}
	put(uint64(int64(m.MaxIterations)))
	put(uint64(m.MaxConflicts))
	put(uint64(m.QueryTimeout))
	return hex.EncodeToString(h.Sum(nil))
}

// MonitorResult is one drift check's outcome. ClosedLines and Loads echo
// the analyzed snapshot so a report (or a test) can reproduce the ladder run
// from scratch.
type MonitorResult struct {
	Cycle       int              `json:"cycle"`
	Fingerprint string           `json:"fingerprint"`
	Cached      bool             `json:"cached"`
	Verdicts    []MonitorVerdict `json:"verdicts"`
	ClosedLines []int            `json:"closed_lines,omitempty"`
	Loads       []float64        `json:"loads,omitempty"`
	Elapsed     time.Duration    `json:"elapsed_ns"`
}

// Check analyzes a drifted snapshot. The mapped topology is what the
// operator's topology processor currently believes; loads is the estimated
// per-bus load picture; dispatch is the operating dispatch the attacker
// would observe. Returns nil when the monitor has no targets.
func (m *Monitor) Check(cycle int, mapped grid.Topology, loads, dispatch []float64) (*MonitorResult, error) {
	if m == nil || len(m.Targets) == 0 {
		return nil, nil
	}
	start := time.Now()
	fp := m.Fingerprint(mapped, loads, dispatch)
	var closed []int
	for _, ln := range m.Grid.Lines {
		if mapped.Contains(ln.ID) {
			closed = append(closed, ln.ID)
		}
	}
	snapLoads := append([]float64(nil), loads...)
	if verdicts, ok := m.cache[fp]; ok {
		m.hits++
		return &MonitorResult{Cycle: cycle, Fingerprint: fp, Cached: true, Verdicts: verdicts,
			ClosedLines: closed, Loads: snapLoads, Elapsed: time.Since(start)}, nil
	}
	m.misses++

	// Cold run: analyze the grid as the operator currently sees it — the
	// mapped topology becomes the in-service set and the estimated loads
	// replace the static load picture (bounds widened to keep the snapshot
	// feasible for the attack model's load-shift constraints).
	g := m.Grid.Clone()
	for i := range g.Lines {
		g.Lines[i].InService = mapped.Contains(g.Lines[i].ID)
	}
	for i := range g.Loads {
		bus := g.Loads[i].Bus
		if bus < 1 || bus > len(loads) {
			continue
		}
		p := loads[bus-1]
		g.Loads[i].P = p
		if g.Loads[i].MaxP < p {
			g.Loads[i].MaxP = p
		}
		if g.Loads[i].MinP > p {
			g.Loads[i].MinP = p
		}
	}
	an := &core.Analyzer{
		Grid:              g,
		Plan:              m.Plan,
		Capability:        m.Capability,
		OperatingDispatch: dispatch,
		MaxIterations:     m.MaxIterations,
		MaxConflicts:      m.MaxConflicts,
		QueryTimeout:      m.QueryTimeout,
		Verify:            core.VerifyLP,
	}
	reports, err := an.RunLadder(m.Targets)
	if err != nil {
		return nil, fmt.Errorf("fleet: monitor ladder: %w", err)
	}
	verdicts := make([]MonitorVerdict, len(reports))
	for i, r := range reports {
		verdicts[i] = MonitorVerdict{
			TargetPercent: m.Targets[i],
			Found:         r.Found,
			Exhausted:     r.Exhausted,
			BaselineCost:  r.BaselineCost,
			AttackedCost:  r.AttackedCost,
		}
		if r.Found && r.Vector != nil && len(r.Vector.ExcludedLines) > 0 {
			verdicts[i].LineID = r.Vector.ExcludedLines[0]
		}
	}
	m.cache[fp] = verdicts
	return &MonitorResult{Cycle: cycle, Fingerprint: fp, Verdicts: verdicts,
		ClosedLines: closed, Loads: snapLoads, Elapsed: time.Since(start)}, nil
}
