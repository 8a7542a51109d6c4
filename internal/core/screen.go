package core

import (
	"fmt"
	"sort"
	"time"

	"gridattack/internal/attack"
	"gridattack/internal/dist"
	"gridattack/internal/grid"
	"gridattack/internal/opf"
)

// ScreenReport summarizes an economic exclusion screen: every single-line
// topology-poisoning candidate classified against an OPF cost threshold.
type ScreenReport struct {
	BaselineCost float64
	Threshold    float64

	// Candidates is the number of in-service, attacker-controllable lines
	// examined. Each lands in exactly one class:
	Candidates int
	// Safe lines carry a witness-dispatch certificate: excluding the line
	// provably cannot raise the OPF cost to the threshold.
	Safe int
	// Islanding lines disconnect the network when excluded — maximal
	// physical impact, no OPF exists.
	Islanding int
	// Flagged lines are everything else: the screen cannot certify them, so
	// they need full verification. FlaggedLines lists them in ID order.
	Flagged      int
	FlaggedLines []int

	// Phase timings: attack-free OPF, distribution factors, and the
	// classification loop (including the lazily-built interior witnesses).
	BaseSolve time.Duration
	Factors   time.Duration
	Classify  time.Duration
}

// Total returns the end-to-end screen wall-clock time.
func (r *ScreenReport) Total() time.Duration { return r.BaseSolve + r.Factors + r.Classify }

// ScreenExclusions classifies every single-line exclusion candidate of the
// grid against the cost threshold baseline*(1+targetPercent/100). It is the
// scalable core of the Fig. 4(a) impact question — "which topology
// poisonings can raise the operating cost past the target?" — answered
// without any per-candidate LP or SMT work: a Safe verdict is backed by a
// witness-dispatch certificate (see the prescreener soundness argument), so
// a Safe line can never verify as reached. The screen never claims the
// converse: Flagged means "verify me", not "reached".
func ScreenExclusions(g *grid.Grid, targetPercent float64) (*ScreenReport, error) {
	if targetPercent <= 0 {
		return nil, fmt.Errorf("%w: target increase must be positive", ErrConfig)
	}
	topo := g.TrueTopology()

	start := time.Now()
	base, err := opf.Solve(g, topo, nil)
	if err != nil {
		return nil, fmt.Errorf("core: attack-free OPF: %w", err)
	}
	rep := &ScreenReport{
		BaselineCost: base.Cost,
		Threshold:    base.Cost * (1 + targetPercent/100),
		BaseSolve:    time.Since(start),
	}

	start = time.Now()
	fac, err := dist.New(g, topo)
	if err != nil {
		return nil, fmt.Errorf("core: distribution factors: %w", err)
	}
	rep.Factors = time.Since(start)

	start = time.Now()
	pre := newPrescreener(g, fac, rep.Threshold, base)
	loads := g.LoadVector()
	for _, ln := range g.Lines {
		if !ln.CanAlterStatus || !ln.InService || !topo.Contains(ln.ID) {
			continue
		}
		rep.Candidates++
		if !g.Connected(topo.WithExcluded(ln.ID)) {
			rep.Islanding++
			continue
		}
		v := &attack.Vector{ExcludedLines: []int{ln.ID}, ObservedLoads: loads}
		if _, ok := pre.prune(v); ok {
			rep.Safe++
			continue
		}
		rep.Flagged++
		rep.FlaggedLines = append(rep.FlaggedLines, ln.ID)
	}
	sort.Ints(rep.FlaggedLines)
	rep.Classify = time.Since(start)
	return rep, nil
}
