package difftest

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"gridattack/internal/attack"
	"gridattack/internal/core"
	"gridattack/internal/opf"
)

// The ladder oracle runs the Fig. 2 threshold ladder (one shared candidate
// search) over a generated system, uncertified and certified, against a loop
// of independent per-target Runs; the per-rung verdicts must match bit for
// bit.

// ladderVerdict is the part of a core.Report that must be bit-identical
// between a ladder rung and the independent Run at its target.
type ladderVerdict struct {
	Found        bool
	Exhausted    bool
	Canceled     bool
	Iterations   int
	AttackedCost float64
	Vector       string // canonical JSON; "" when nil
}

func verdictOf(rep *core.Report) ladderVerdict {
	v := ladderVerdict{
		Found:        rep.Found,
		Exhausted:    rep.Exhausted,
		Canceled:     rep.Canceled,
		Iterations:   rep.Iterations,
		AttackedCost: rep.AttackedCost,
	}
	if rep.Vector != nil {
		j, _ := json.Marshal(rep.Vector)
		v.Vector = string(j)
	}
	return v
}

// checkLadderAB compares the Fig. 2 ladder, uncertified and certified, with
// independent per-target Runs on one generated system. The certified ladder
// draws nothing from rng.
func checkLadderAB(sys *System, rng *rand.Rand) string {
	if _, err := opf.Solve(sys.Grid, sys.Grid.TrueTopology(), nil); err != nil {
		return "" // no attack-free optimum: the ladder has no baseline
	}
	base := float64(1+rng.Intn(3)) / 2 // 0.5, 1, or 1.5 %
	targets := []float64{base, base * 2, base * 4}
	mode := core.VerifyLP
	if rng.Intn(2) == 0 {
		mode = core.VerifySMT
	}
	analyzer := func(target float64, certify bool) *core.Analyzer {
		return &core.Analyzer{
			Grid:                  sys.Grid,
			Plan:                  sys.Plan,
			Capability:            attack.Capability{RequireTopologyChange: true},
			TargetIncreasePercent: target,
			MaxIterations:         12,
			Verify:                mode,
			Certify:               certify,
		}
	}
	runs := make([]*core.Report, len(targets))
	var runErr error
	for i, t := range targets {
		if runs[i], runErr = analyzer(t, false).Run(); runErr != nil {
			break
		}
	}
	for _, certify := range []bool{false, true} {
		ladder, err := analyzer(targets[0], certify).RunLadder(targets)
		if (err != nil) != (runErr != nil) {
			return fmt.Sprintf("ladder error asymmetry (%s, certify=%t): ladder=%v runs=%v", mode, certify, err, runErr)
		}
		if err != nil {
			continue // both reject the system the same way
		}
		for i := range targets {
			if gl, gr := verdictOf(ladder[i]), verdictOf(runs[i]); gl != gr {
				return fmt.Sprintf("ladder verdict mismatch (%s, certify=%t) at rung %v%%: ladder=%+v run=%+v", mode, certify, targets[i], gl, gr)
			}
		}
	}
	return ""
}
