// Package se implements DC weighted-least-squares state estimation with
// bad-data detection (paper Sec. II-B):
//
//	x_hat = (H^T W H)^-1 H^T W z
//
// where the state x is the vector of non-reference bus phase angles, z the
// taken measurements, and W a diagonal weighting matrix. The measurement
// residual ||z - H*x_hat|| drives bad-data detection; stealthy (UFDI)
// attacks are precisely those that leave the residual unchanged.
//
// H is never densified: every estimate, complete or degraded, assembles the
// gain matrix H^T W H from sparse measurement rows and solves it with the
// fill-reducing sparse LU, whose success decides observability.
package se

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"gridattack/internal/grid"
	"gridattack/internal/linalg/sparse"
	"gridattack/internal/measure"
)

// ErrUnobservable indicates the taken measurement set cannot determine the
// system state (rank-deficient H).
var ErrUnobservable = errors.New("se: system unobservable with the taken measurements")

// Estimator performs WLS state estimation for one grid and measurement plan.
//
// An Estimator keeps the factorized gain matrix of its last successful
// solve, with the residual variances it implies, and reuses both when the
// next solve's measurement rows (column indices and value bits), weight
// bits and state count are all the same. Those are the only inputs of the
// factorization, so a reuse returns exactly what recomputing would, and a
// changed plan, weight, topology or grid simply misses. It keeps the
// measurement rows themselves the same way, keyed on the bits of
// everything they are built from. An Estimator is not safe for concurrent
// use.
type Estimator struct {
	grid *grid.Grid
	plan *measure.Plan

	// gain is the factorization of the last successful solve.
	gain *gain

	// rows and rowsIdx are the last measRows result, and rowsKey the bits
	// of its inputs (see measRowsKey); keyBuf is scratch for the next key.
	rows    []measRow
	rowsIdx []int
	rowsKey []byte
	keyBuf  []byte

	// Weights holds per-measurement weights (reciprocal error variances),
	// indexed by 1-based measurement number; entries <= 0 default to 1.
	Weights []float64

	// Threshold is the bad-data residual threshold tau. When 0, a
	// chi-square test at 95% confidence with m-n degrees of freedom is used
	// instead.
	Threshold float64
}

// NewEstimator returns an estimator for the grid and plan.
func NewEstimator(g *grid.Grid, plan *measure.Plan) *Estimator {
	return &Estimator{grid: g, plan: plan}
}

// SetUniformNoise calibrates the weighting matrix (and thus the chi-square
// detector) for i.i.d. Gaussian measurement noise with standard deviation
// sigma: every weight becomes 1/sigma^2, making the weighted residual's
// square chi-square distributed with m-n degrees of freedom under honest
// telemetry.
func (e *Estimator) SetUniformNoise(sigma float64) {
	if sigma <= 0 {
		e.Weights = nil
		return
	}
	w := 1 / (sigma * sigma)
	e.Weights = make([]float64, e.plan.M()+1)
	for i := range e.Weights {
		e.Weights[i] = w
	}
}

// Result is the outcome of one estimation run.
type Result struct {
	Theta            []float64       // estimated phase angle per bus (ref = 0)
	Residual         float64         // weighted l2 norm of the residual
	EstimatedZ       *measure.Vector // H * x_hat for the taken measurements
	LoadEstimate     []float64       // estimated consumption per bus (load - gen)
	BadData          bool            // residual exceeded the detection threshold
	Flows            []float64       // estimated line flows under the topology
	DegreesOfFreedom int
	// LargestNormalizedResidual identifies the most suspicious measurement
	// (1-based measurement number) and its normalized residual magnitude.
	SuspectMeasurement int
	SuspectResidual    float64

	// Degraded-mode annotations (EstimatePartial). Degraded is set whenever
	// the estimate was produced from an incomplete measurement set. Missing
	// lists the plan-taken measurements absent from the telemetry. Pseudo
	// lists the measurements whose values were substituted from the last
	// good snapshot. IslandBuses, when non-nil, lists the buses actually
	// estimated: angles (and derived flows/loads) outside the island are
	// reported as zero and must be treated as unknown.
	Degraded    bool
	Missing     []int
	Pseudo      []int
	IslandBuses []int
}

// measRow is one taken row of the reduced measurement matrix: its nonzero
// columns and values, with the consumption block negated so that
// z = H*theta holds exactly for the sign conventions of package measure
// (consumption = incoming - outgoing flows, the negative of the paper's
// A^T*D*A block).
type measRow struct {
	cols []int
	vals []float64
}

// measRows extracts the plan's taken rows of the sparse reduced measurement
// matrix under topology t, with their 1-based measurement numbers. The
// rows share one backing array of columns and one of values. It returns
// the last call's rows when their inputs are bit for bit the same; callers
// never modify either slice.
func (e *Estimator) measRows(t grid.Topology) ([]measRow, []int, error) {
	key := e.measRowsKey(e.keyBuf[:0], t)
	if e.rows != nil && slices.Equal(key, e.rowsKey) {
		e.keyBuf = key
		return e.rows, e.rowsIdx, nil
	}
	hr, err := e.grid.ReducedMeasurementSparse(t)
	if err != nil {
		return nil, nil, err
	}
	l := e.grid.NumLines()
	nnz, taken := 0, 0
	for i := 1; i <= e.plan.M(); i++ {
		if e.plan.Taken[i] {
			nnz += hr.RowNNZ(i - 1)
			taken++
		}
	}
	cols, vals := make([]int, 0, nnz), make([]float64, 0, nnz)
	rows := make([]measRow, 0, taken)
	idx := make([]int, 0, taken)
	for i := 1; i <= e.plan.M(); i++ {
		if !e.plan.Taken[i] {
			continue
		}
		sign := 1.0
		if i > 2*l { // consumption rows: flip sign (see measRow)
			sign = -1
		}
		start := len(cols)
		hr.Row(i-1, func(j int, v float64) {
			cols = append(cols, j)
			vals = append(vals, sign*v)
		})
		end := len(cols)
		rows = append(rows, measRow{cols: cols[start:end:end], vals: vals[start:end:end]})
		idx = append(idx, i)
	}
	e.rows, e.rowsIdx = rows, idx
	e.rowsKey, e.keyBuf = key, e.rowsKey
	return rows, idx, nil
}

// measRowsKey appends to buf the bits of every input of measRows under
// topology t: the grid's bits (grid.Grid.AppendBits), whether t maps each
// line, and the plan's taken set.
func (e *Estimator) measRowsKey(buf []byte, t grid.Topology) []byte {
	buf = e.grid.AppendBits(buf)
	for _, ln := range e.grid.Lines {
		mapped := byte(0)
		if t.Contains(ln.ID) {
			mapped = 1
		}
		buf = append(buf, mapped)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.plan.M()))
	for i := 1; i <= e.plan.M(); i++ {
		taken := byte(0)
		if e.plan.Taken[i] {
			taken = 1
		}
		buf = append(buf, taken)
	}
	return buf
}

// weightOf returns the configured weight of measurement i (default 1).
func (e *Estimator) weightOf(i int) float64 {
	if e.Weights != nil && i < len(e.Weights) && e.Weights[i] > 0 {
		return e.Weights[i]
	}
	return 1
}

// stateBuses returns the non-reference bus IDs in the column order of the
// reduced measurement matrix.
func (e *Estimator) stateBuses() []int {
	out := make([]int, 0, e.grid.NumBuses()-1)
	for _, bus := range e.grid.Buses {
		if bus.ID != e.grid.RefBus {
			out = append(out, bus.ID)
		}
	}
	return out
}

// factorGain assembles the gain matrix G = H^T W H of rows over n states
// and factorizes it. Each row contributes w_r * h_r h_r^T, a clique over
// its nonzeros, so assembly is linear in the network size. A singular G is
// exactly rank deficiency of H: the factorization decides observability and
// reports it as ErrUnobservable.
func factorGain(rows []measRow, w []float64, n int) (*sparse.LU, error) {
	if len(rows) < n {
		return nil, fmt.Errorf("%w: %d measurements for %d states", ErrUnobservable, len(rows), n)
	}
	gb := sparse.NewBuilder(n, n)
	for r, row := range rows {
		wr := w[r]
		for a, ca := range row.cols {
			va := wr * row.vals[a]
			for b, cb := range row.cols {
				gb.Add(ca, cb, va*row.vals[b])
			}
		}
	}
	fact, err := sparse.Factorize(gb.ToCSC())
	if err != nil {
		return nil, ErrUnobservable
	}
	return fact, nil
}

// gain is a factorized gain matrix with the inputs it was built from and
// the residual variances it implies.
type gain struct {
	rows  []measRow
	w     []float64
	n     int
	fact  *sparse.LU
	omega []float64 // Omega_kk per row
}

// matches reports whether rows, w and n are bit for bit the inputs g was
// built from.
func (g *gain) matches(rows []measRow, w []float64, n int) bool {
	if g == nil || g.n != n || len(g.rows) != len(rows) {
		return false
	}
	for r, row := range rows {
		old := g.rows[r]
		if math.Float64bits(g.w[r]) != math.Float64bits(w[r]) || len(old.cols) != len(row.cols) {
			return false
		}
		for a, c := range row.cols {
			if old.cols[a] != c || math.Float64bits(old.vals[a]) != math.Float64bits(row.vals[a]) {
				return false
			}
		}
	}
	return true
}

// gainFor returns the factorized gain matrix of rows, weights w and n
// states, reusing the last successful one when its inputs are bit-identical
// and keeping a newly computed one for the next solve. A failed
// factorization leaves the kept one alone. The rows and weights are kept
// by reference: the solver never modifies them after building them.
func (e *Estimator) gainFor(rows []measRow, w []float64, n int) (*gain, error) {
	if e.gain.matches(rows, w, n) {
		return e.gain, nil
	}
	fact, err := factorGain(rows, w, n)
	if err != nil {
		return nil, err
	}
	omega, err := residualVariances(fact, rows, w)
	if err != nil {
		return nil, err
	}
	e.gain = &gain{rows: rows, w: w, n: n, fact: fact, omega: omega}
	return e.gain, nil
}

// Estimate runs WLS estimation of the state from the measurement vector z
// under the mapped topology t. Every plan-taken measurement must be present
// in z; use EstimatePartial for degraded telemetry.
func (e *Estimator) Estimate(t grid.Topology, z *measure.Vector) (*Result, error) {
	rows, idx, err := e.measRows(t)
	if err != nil {
		return nil, err
	}
	zv := make([]float64, len(idx))
	w := make([]float64, len(idx))
	for k, i := range idx {
		if !z.Present[i] {
			return nil, fmt.Errorf("se: measurement %d is in the plan but absent from z", i)
		}
		zv[k] = z.Values[i]
		w[k] = e.weightOf(i)
	}
	return e.solve(t, rows, idx, zv, w, e.stateBuses())
}

// solve is the one WLS solver: rows are measurement rows over the states of
// stateBuses (column k is bus stateBuses[k]), idx/zv/w their measurement
// numbers, values and weights. Angles of buses outside stateBuses are
// reported as zero. It returns ErrUnobservable when the rows do not
// determine those states.
func (e *Estimator) solve(t grid.Topology, rows []measRow, idx []int, zv, w []float64, stateBuses []int) (*Result, error) {
	n := len(stateBuses)
	g, err := e.gainFor(rows, w, n)
	if err != nil {
		return nil, err
	}
	// Normal equations: (H^T W H) x = H^T W z.
	rhs := make([]float64, n)
	for r, row := range rows {
		wz := w[r] * zv[r]
		for a, c := range row.cols {
			rhs[c] += row.vals[a] * wz
		}
	}
	xr, err := g.fact.Solve(rhs)
	if err != nil {
		return nil, fmt.Errorf("se: gain matrix solve: %w", err)
	}

	// Expand to full theta (reference bus and unestimated buses at zero).
	theta := make([]float64, e.grid.NumBuses())
	for k, bus := range stateBuses {
		theta[bus-1] = xr[k]
	}

	// Residual and estimated measurements.
	var j2 float64
	resid := make([]float64, len(idx))
	estZ := measure.NewVector(e.plan.M())
	for r, row := range rows {
		var s float64
		for a, c := range row.cols {
			s += row.vals[a] * xr[c]
		}
		resid[r] = zv[r] - s
		j2 += w[r] * resid[r] * resid[r]
		estZ.Values[idx[r]] = s
		estZ.Present[idx[r]] = true
	}
	residual := math.Sqrt(j2)

	flows, err := e.grid.FlowsFromTheta(t, theta)
	if err != nil {
		return nil, err
	}
	loadEst, err := e.grid.ConsumptionFromFlows(t, flows)
	if err != nil {
		return nil, err
	}

	df := len(idx) - n
	res := &Result{
		Theta:            theta,
		Residual:         residual,
		EstimatedZ:       estZ,
		LoadEstimate:     loadEst,
		Flows:            flows,
		DegreesOfFreedom: df,
	}
	res.SuspectMeasurement, res.SuspectResidual = largestNormalizedResidual(g.omega, resid, idx)
	res.BadData = e.detectBadData(residual, df)
	return res, nil
}

// detectBadData applies the fixed threshold when configured, otherwise the
// chi-square test at 95% confidence.
func (e *Estimator) detectBadData(residual float64, df int) bool {
	if e.Threshold > 0 {
		return residual > e.Threshold
	}
	if df <= 0 {
		return false
	}
	return residual*residual > chiSquare95(df)
}

// chi295Table holds exact 95th percentiles of the chi-square distribution
// for 1..30 degrees of freedom; larger df use the Wilson-Hilferty
// approximation, which is accurate to well under 1% there.
var chi295Table = []float64{
	3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507, 16.919,
	18.307, 19.675, 21.026, 22.362, 23.685, 24.996, 26.296, 27.587, 28.869,
	30.144, 31.410, 32.671, 33.924, 35.172, 36.415, 37.652, 38.885, 40.113,
	41.337, 42.557, 43.773,
}

// chiSquare95 returns the 95th percentile of the chi-square distribution
// with df degrees of freedom.
func chiSquare95(df int) float64 {
	if df >= 1 && df <= len(chi295Table) {
		return chi295Table[df-1]
	}
	k := float64(df)
	z := 1.6448536269514722 // standard normal 95th percentile
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * t * t * t
}

// residualVariances returns the residual variance of every row,
// Omega_kk = 1/w_k - h_k G^-1 h_k^T, the diagonal of Omega = R - H G^-1 H^T
// with R = W^-1. Each costs one solve with the gain factorization, into
// one pair of buffers; G^-1 is never formed.
func residualVariances(fact *sparse.LU, rows []measRow, w []float64) ([]float64, error) {
	omega := make([]float64, len(rows))
	x, work := make([]float64, fact.Order()), make([]float64, fact.Order())
	for k, row := range rows {
		for i := range x {
			x[i] = 0
		}
		for a, c := range row.cols {
			x[c] = row.vals[a]
		}
		if err := fact.SolveInto(x, work, x); err != nil {
			return nil, fmt.Errorf("se: residual variance solve: %w", err)
		}
		var hgh float64
		for a, c := range row.cols {
			hgh += row.vals[a] * x[c]
		}
		omega[k] = 1/w[k] - hgh
	}
	return omega, nil
}

// largestNormalizedResidual returns the measurement with the largest
// normalized residual |r_k| / sqrt(Omega_kk), the classical bad-data
// identification statistic.
func largestNormalizedResidual(omega, resid []float64, idx []int) (int, float64) {
	bestI, bestV := 0, 0.0
	for k, om := range omega {
		if om < 1e-12 {
			continue // critical measurement: residual always ~0
		}
		rn := math.Abs(resid[k]) / math.Sqrt(om)
		if rn > bestV {
			bestV = rn
			bestI = idx[k]
		}
	}
	return bestI, bestV
}

// Observable reports whether the plan's taken measurements make the system
// observable under topology t.
func (e *Estimator) Observable(t grid.Topology) (bool, error) {
	rows, idx, err := e.measRows(t)
	if err != nil {
		return false, err
	}
	w := make([]float64, len(idx))
	for k, i := range idx {
		w[k] = e.weightOf(i)
	}
	_, err = factorGain(rows, w, e.grid.NumBuses()-1)
	return err == nil, nil
}
