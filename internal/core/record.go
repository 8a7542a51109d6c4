package core

import (
	"gridattack/internal/attack"
	"gridattack/internal/opf"
)

// recordEnd says how the enumeration behind a Record ended.
type recordEnd int

const (
	// endOpen: the record says nothing past its candidates (a search that
	// failed, or a run reconstructed from a finalized journal).
	endOpen recordEnd = iota
	// endExhausted: FindVector found no further candidate.
	endExhausted
	// endCanceled: a budget or timeout stopped the search or a verification.
	endCanceled
	// endCapped: the search stopped at the iteration cap.
	endCapped
	// endResolved: the search stopped because every asked target resolved.
	endResolved
)

// Record is the candidate record of one analysis: the candidates in search
// order, each with its threshold-independent verification outcome, and how
// the enumeration ended. FindVector and Block never read the threshold, so
// every analysis of one problem under one configuration (verify mode,
// iteration cap, block precision, certification) walks the same candidate
// stream, and a record answers other targets on that problem with exactly
// the verdict Analyzer.Run computes at them (Replay).
type Record struct {
	baseline float64 // attack-free OPF optimum T0
	cands    []candidate
	end      recordEnd
}

// candidate is one recorded candidate and its verification outcome.
type candidate struct {
	vector *attack.Vector
	// cost and converged are the outcome under VerifyLP and VerifyShift:
	// the post-attack OPF minimum and whether OPF converged (opfCost).
	cost      float64
	converged bool
	// exact is the outcome under VerifySMT: the certified OPF optimum.
	exact *opf.ExactModel
	// noOutcome marks a candidate without a threshold-independent outcome:
	// the exact model could not certify it, so the per-threshold SMT
	// fallback decides it, or it was replayed from a checkpoint journal
	// without being verified again. It ends what the record can answer.
	noOutcome bool
}

// reaches is the one reach rule: whether the candidate's outcome reaches
// threshold. The OPF must converge for a generous budget (Eq. 38) while no
// dispatch stays below the threshold itself (Eq. 37); on a cost that is
// cost >= threshold, on a certified optimum the same pair of comparisons
// made exactly.
func (c *candidate) reaches(threshold float64) bool {
	if c.exact != nil {
		return c.exact.CostBelow(threshold*10) && !c.exact.CostBelow(threshold)
	}
	return c.converged && c.cost >= threshold
}

// walk scans the candidates from position from, up to the iteration cap,
// for the first whose outcome reaches threshold. It returns that position
// and true, or false and the position where the scan stopped: the cap, the
// end of the record, or the first candidate without an outcome.
func (r *Record) walk(threshold float64, from, maxIter int) (int, bool) {
	n := min(len(r.cands), maxIter)
	for i := from; i < n; i++ {
		c := &r.cands[i]
		if c.noOutcome {
			return i, false
		}
		if c.reaches(threshold) {
			return i, true
		}
	}
	return n, false
}

// settle concludes, on rep, a walk that stopped at position pos without
// reaching its threshold: not found at the cap, or Exhausted when the
// record ended exhausted there. It reports false when the record does not
// decide the target.
func (r *Record) settle(rep *Report, pos, maxIter int) bool {
	switch {
	case pos >= maxIter:
		rep.Iterations = maxIter
	case pos == len(r.cands) && r.end == endExhausted:
		rep.Exhausted = true
		rep.Iterations = pos
	default:
		return false
	}
	return true
}

// Replay answers target (a cost-increase percentage) under iteration cap
// maxIter (0 = 200) from the record alone. When the record covers the
// target, the report's Found, Exhausted, Canceled, Iterations, Vector,
// AttackedCost, BaselineCost and Threshold are those Analyzer.Run computes
// at that target on the record's problem and configuration; ok is false
// when it does not. The record covers a target when a recorded candidate
// reaches it before the cap and before the first candidate without an
// outcome, when it holds the cap's worth of candidates with outcomes (not
// found at the cap), or when it ended exhausted before the cap and no
// candidate reaches the target (Exhausted). Timing and effort fields stay
// zero.
func (r *Record) Replay(target float64, maxIter int) (*Report, bool) {
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	rep := &Report{BaselineCost: r.baseline, Threshold: r.baseline * (1 + target/100)}
	pos, found := r.walk(rep.Threshold, 0, maxIter)
	if !found {
		return rep, r.settle(rep, pos, maxIter)
	}
	c := &r.cands[pos]
	rep.Found = true
	rep.Vector = c.vector
	rep.AttackedCost = c.cost
	rep.Iterations = pos + 1
	return rep, true
}

// Extent measures how much a record covers: the candidates with outcomes
// before the first without one, plus one when that is the whole record and
// it ended exhausted. Two records of one problem and configuration share
// their candidates, so the one with the larger extent covers every target
// the other does.
func (r *Record) Extent() int {
	n := 0
	for n < len(r.cands) && !r.cands[n].noOutcome {
		n++
	}
	if n == len(r.cands) && r.end == endExhausted {
		n++
	}
	return n
}

// Bytes approximates the heap bytes the record retains: its candidates'
// vectors and certified optima.
func (r *Record) Bytes() int {
	n := 64
	for i := range r.cands {
		c := &r.cands[i]
		n += 48
		if v := c.vector; v != nil {
			n += 9*24 + 8*(len(v.ExcludedLines)+len(v.IncludedLines)+len(v.AlteredMeasurements)+
				len(v.CompromisedBuses)+len(v.InfectedStates)+len(v.DeltaTheta)+len(v.DeltaFlow)+
				len(v.DeltaConsumption)+len(v.ObservedLoads))
			n += 48 + 16*v.MappedTopology.Size() // the closed-line map
		}
		if c.exact != nil {
			opt := c.exact.Optimum()
			n += 64 + 8*(len(opt.Num().Bits())+len(opt.Denom().Bits()))
		}
	}
	return n
}
