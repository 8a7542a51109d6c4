package se

import (
	"errors"
	"sort"

	"gridattack/internal/grid"
	"gridattack/internal/measure"
)

// pseudoWeightFactor scales down the weight of pseudo-measurements
// substituted from the last good snapshot in degraded mode, so stale values
// anchor observability without drowning out live telemetry.
const pseudoWeightFactor = 0.01

// EstimatePartial runs WLS estimation tolerating an incomplete measurement
// set — the degraded-mode entry point for a control center whose RTUs are
// failing. The escalation ladder is:
//
//  1. Nothing missing: the estimate of Estimate, bit for bit (not
//     degraded).
//  2. The surviving measurements alone keep the system observable: solve
//     with exactly those (degraded, no pseudo-measurements).
//  3. Otherwise, if lastGood is non-nil, substitute pseudo-measurements
//     from it for the missing entries, down-weighted by
//     pseudoWeightFactor, and solve the full system.
//  4. Otherwise, solve the observable island around the reference bus —
//     the largest bus set connected by lines with surviving flow
//     telemetry — and report angles outside it as unknown (zero).
//  5. Failing all of those, return ErrUnobservable.
//
// Every rung runs the one sparse WLS solver; the factorization of its gain
// matrix decides whether the rung's measurements observe its states.
func (e *Estimator) EstimatePartial(t grid.Topology, z, lastGood *measure.Vector) (*Result, error) {
	rows, idx, err := e.measRows(t)
	if err != nil {
		return nil, err
	}
	var missing []int
	prows := make([]measRow, 0, len(idx))
	pidx := make([]int, 0, len(idx))
	pzv := make([]float64, 0, len(idx))
	pw := make([]float64, 0, len(idx))
	for k, i := range idx {
		if !z.Present[i] {
			missing = append(missing, i)
			continue
		}
		prows = append(prows, rows[k])
		pidx = append(pidx, i)
		pzv = append(pzv, z.Values[i])
		pw = append(pw, e.weightOf(i))
	}
	stateBuses := e.stateBuses()

	// 1. Complete telemetry, or 2. the survivors alone.
	res, err := e.solve(t, prows, pidx, pzv, pw, stateBuses)
	if len(missing) == 0 {
		return res, err
	}
	if err == nil {
		res.Degraded = true
		res.Missing = missing
		return res, nil
	}
	if !errors.Is(err, ErrUnobservable) {
		return nil, err
	}

	// 3. Pseudo-measurements from the last good snapshot.
	if lastGood != nil {
		arows := append([]measRow(nil), prows...)
		aidx := append([]int(nil), pidx...)
		azv := append([]float64(nil), pzv...)
		aw := append([]float64(nil), pw...)
		var pseudo []int
		for k, i := range idx {
			if z.Present[i] || !lastGood.Present[i] {
				continue
			}
			arows = append(arows, rows[k])
			aidx = append(aidx, i)
			azv = append(azv, lastGood.Values[i])
			aw = append(aw, e.weightOf(i)*pseudoWeightFactor)
			pseudo = append(pseudo, i)
		}
		if len(pseudo) > 0 {
			res, err := e.solve(t, arows, aidx, azv, aw, stateBuses)
			if err == nil {
				res.Degraded = true
				res.Missing = missing
				res.Pseudo = pseudo
				return res, nil
			}
			if !errors.Is(err, ErrUnobservable) {
				return nil, err
			}
		}
	}

	// 4. Observable island around the reference bus.
	if res, ok := e.islandSolve(t, stateBuses, prows, pidx, pzv, pw); ok {
		res.Degraded = true
		res.Missing = missing
		return res, nil
	}
	return nil, ErrUnobservable
}

// islandSolve attempts a reduced WLS solve over the observable island: the
// connected component of the reference bus through topology lines that
// still have flow telemetry. Only measurement rows whose support lies
// entirely inside the island are usable; their columns are renumbered to
// the island's states. Returns ok=false when the island is trivial, covers
// the whole system (then the full-system solve already failed), or is
// itself unobservable.
func (e *Estimator) islandSolve(t grid.Topology, all []int, rows []measRow, pidx []int, pzv, pw []float64) (*Result, bool) {
	surviving := make(map[int]bool, len(pidx))
	for _, i := range pidx {
		surviving[i] = true
	}
	// Flood-fill from the reference bus over observed lines.
	island := map[int]bool{e.grid.RefBus: true}
	for changed := true; changed; {
		changed = false
		for _, ln := range e.grid.Lines {
			if !t.Contains(ln.ID) {
				continue
			}
			if !surviving[e.plan.ForwardIndex(ln.ID)] && !surviving[e.plan.BackwardIndex(ln.ID)] {
				continue
			}
			if island[ln.From] != island[ln.To] {
				island[ln.From], island[ln.To] = true, true
				changed = true
			}
		}
	}
	if len(island) <= 1 || len(island) >= e.grid.NumBuses() {
		return nil, false
	}

	// Column selection: island states, in reduced-matrix column order;
	// islandCol maps a full column to its island column (-1 outside).
	islandCol := make([]int, len(all))
	var stateBuses []int
	for c, bus := range all {
		islandCol[c] = -1
		if island[bus] {
			islandCol[c] = len(stateBuses)
			stateBuses = append(stateBuses, bus)
		}
	}

	// Row selection: support entirely inside the island's columns.
	var irows []measRow
	var iidx []int
	var izv, iw []float64
rowLoop:
	for k, row := range rows {
		sub := measRow{cols: make([]int, len(row.cols)), vals: row.vals}
		for a, c := range row.cols {
			if islandCol[c] < 0 {
				continue rowLoop
			}
			sub.cols[a] = islandCol[c]
		}
		irows = append(irows, sub)
		iidx = append(iidx, pidx[k])
		izv = append(izv, pzv[k])
		iw = append(iw, pw[k])
	}
	res, err := e.solve(t, irows, iidx, izv, iw, stateBuses)
	if err != nil {
		return nil, false
	}
	buses := make([]int, 0, len(island))
	for bus := range island {
		buses = append(buses, bus)
	}
	sort.Ints(buses)
	res.IslandBuses = buses
	return res, true
}
