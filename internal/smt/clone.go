package smt

import "math/big"

// Clone returns a deep, fully independent copy of the solver: assertions,
// learned clauses, activity/phase heuristic state, the simplex tableau, and
// any in-progress search state (trail, decision levels, model) are all
// duplicated, so the copy behaves bit-for-bit like the original under the
// same sequence of calls. Formula AST nodes in the Tseitin cache are shared
// (they are immutable); everything mutable is copied.
//
// Clone is the foundation of the portfolio solver (CheckPortfolio) and of
// the analyzer's speculative find–verify pipeline, where a replica continues
// the search under an assumption while the original stays untouched.
func (s *Solver) Clone() *Solver {
	cp := &Solver{
		core:         s.core.clone(),
		simp:         s.simp.clone(),
		boolNames:    append([]string(nil), s.boolNames...),
		realNames:    append([]string(nil), s.realNames...),
		trueVar:      s.trueVar,
		atoms:        make([]*atomInfo, len(s.atoms)),
		atomVars:     make(map[string]int, len(s.atomVars)),
		formSlacks:   make(map[string]int, len(s.formSlacks)),
		tseitinCache: make(map[*Formula]literal, len(s.tseitinCache)),
		atomSlacks:   append([]int(nil), s.atomSlacks...),
		atomsBySlack: make([][]int, len(s.atomsBySlack)),
		theoryHead:   s.theoryHead,
		NoPropagate:  s.NoPropagate,
		ForceBigRat:  s.ForceBigRat,
		theoryProps:  s.theoryProps,
		lastPropRev:  s.lastPropRev,
		MaxConflicts: s.MaxConflicts,
		MaxDuration:  s.MaxDuration,
		MaxPivots:    s.MaxPivots,
		Certify:      s.Certify,
		selfCheck:    s.selfCheck,
		certSpoiled:  s.certSpoiled,
		model:        s.model,
		restartUnit:  s.restartUnit,
		rngState:     s.rngState,
		randFreq:     s.randFreq,
		lastCert:     s.lastCert,
		assertRecs:   append([]assertRecord(nil), s.assertRecs...),
		premises:     append([][]literal(nil), s.premises...),
		steps:        append([]proofStep(nil), s.steps...),
		slackDefs:    make(map[int][]LinTerm, len(s.slackDefs)),
	}
	for v, def := range s.slackDefs {
		cp.slackDefs[v] = def // defining terms are never mutated after creation
	}
	for v, info := range s.atoms {
		if info == nil {
			continue
		}
		ni := &atomInfo{
			slack:   info.slack,
			isUpper: info.isUpper,
			strict:  info.strict,
			bound:   new(big.Rat).Set(info.bound),
		}
		ni.initDeltaBounds()
		cp.atoms[v] = ni
	}
	for slack, avs := range s.atomsBySlack {
		cp.atomsBySlack[slack] = append([]int(nil), avs...)
	}
	for k, v := range s.atomVars {
		cp.atomVars[k] = v
	}
	for k, v := range s.formSlacks {
		cp.formSlacks[k] = v
	}
	for f, l := range s.tseitinCache {
		cp.tseitinCache[f] = l
	}
	if s.modelDelta != nil {
		cp.modelDelta = new(big.Rat).Set(s.modelDelta)
	}
	return cp
}

// clone deep-copies the SAT core. Clauses, watches and reasons are arena
// offsets, so flat copies of the slices carry them over unchanged.
func (c *satCore) clone() *satCore {
	n := &satCore{
		numVars:       c.numVars,
		varInc:        c.varInc,
		unsatisfiable: c.unsatisfiable,
		interrupted:   c.interrupted,
		qhead:         c.qhead,
		decisions:     c.decisions,
		conflicts:     c.conflicts,
		propagations:  c.propagations,
		arena:         append([]literal(nil), c.arena...),
		clauses:       append([]cref(nil), c.clauses...),
		watches:       make([][]cref, len(c.watches)),
		assign:        append([]assignVal(nil), c.assign...),
		level:         append([]int(nil), c.level...),
		reason:        append([]cref(nil), c.reason...),
		trail:         append([]literal(nil), c.trail...),
		trailLim:      append([]int(nil), c.trailLim...),
		activity:      append([]float64(nil), c.activity...),
		phase:         append([]bool(nil), c.phase...),
		heap:          append([]int(nil), c.heap...),
		heapPos:       append([]int(nil), c.heapPos...),
	}
	for i, ws := range c.watches {
		n.watches[i] = append([]cref(nil), ws...)
	}
	return n
}

// clone deep-copies the simplex tableau, bounds, assignment, and backtrack
// trail. The copy gets fresh scratch storage; the hybrid-arithmetic counters
// are carried over so portfolio replicas report cumulative statistics.
// Promoted big.Rat values inside rat64 are immutable by construction, but
// they are still deep-copied here so the clone shares no mutable-looking
// storage with the original (keeps the race detector and future refactors
// honest).
func (s *simplex) clone() *simplex {
	n := newSimplex()
	n.arith = s.arith
	// The struct copy above aliases the scratch big.Rats' nat backing arrays
	// (big.Rat copies share their slices), so a replica's slow-path compare
	// would write into storage the original — and every sibling replica —
	// also scratches into. Reset them; fresh backing is allocated lazily on
	// first slow-path use.
	n.arith.sx, n.arith.sy, n.arith.sz = big.Rat{}, big.Rat{}, big.Rat{}
	n.nVars = s.nVars
	n.needCheck = s.needCheck
	n.boundRev = s.boundRev
	n.pivots = s.pivots
	n.rowReuse = s.rowReuse
	n.certify = s.certify
	n.rows = make([]sparseRow, len(s.rows))
	for v := range s.rows {
		n.rows[v] = s.rows[v].clone()
	}
	n.basic = append([]bool(nil), s.basic...)
	n.basicList = append([]int(nil), s.basicList...)
	n.beta = make([]drat64, len(s.beta))
	for i, d := range s.beta {
		n.beta[i] = d.clone()
	}
	n.lb = cloneBounds(s.lb)
	n.ub = cloneBounds(s.ub)
	n.trail = make([]bndUndo, len(s.trail))
	for i, u := range s.trail {
		n.trail[i] = bndUndo{v: u.v, isUpper: u.isUpper, old: u.old.clone()}
	}
	n.lims = append([]int(nil), s.lims...)
	return n
}

// clone deep-copies a sparse row (fresh backing arrays, promoted rationals
// duplicated).
func (r sparseRow) clone() sparseRow {
	if len(r.cols) == 0 {
		return sparseRow{}
	}
	n := sparseRow{
		cols: append([]int32(nil), r.cols...),
		vals: make([]rat64, len(r.vals)),
	}
	for i, v := range r.vals {
		n.vals[i] = v.clone()
	}
	return n
}

// clone returns a copy that shares no big.Rat storage with r.
func (r rat64) clone() rat64 {
	if r.promoted != nil {
		return rat64{promoted: new(big.Rat).Set(r.promoted)}
	}
	return r
}

// clone returns a copy that shares no big.Rat storage with d.
func (d drat64) clone() drat64 {
	return drat64{a: d.a.clone(), b: d.b.clone()}
}

func cloneBounds(bs []hbound) []hbound {
	out := make([]hbound, len(bs))
	for i, b := range bs {
		out[i] = b.clone()
	}
	return out
}

// clone deep-copies a bound; inactive zero values are returned as-is.
func (b hbound) clone() hbound {
	return hbound{val: b.val.clone(), reason: b.reason, active: b.active}
}
