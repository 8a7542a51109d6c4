package attack

import (
	"context"
	"fmt"
	"math"
	"time"

	"gridattack/internal/expr"
	"gridattack/internal/grid"
	"gridattack/internal/measure"
	"gridattack/internal/smt"
)

// Model is the SMT encoding of the stealthy topology-poisoning attack
// constraints for one grid, measurement plan, attacker capability, and
// operating point. FindVector enumerates satisfying attack vectors;
// Block excludes a found vector (up to a quantization precision, the
// paper's Sec. IV-A first scalability idea) so the search can continue.
type Model struct {
	g    *grid.Grid
	plan *measure.Plan
	cap  Capability
	pf   *grid.PowerFlow

	solver *smt.Solver

	// b is the hash-consed expression builder all constraints are built
	// through (NewModel, Block).
	b *expr.Builder

	// Boolean variable handles (indexed 1-based by line/measurement/bus).
	p, q, k []int
	a       []int
	h       []int
	c       []int

	// Real variable handles.
	dTopo  []int // per line: flow change from the topology error alone
	dState []int // per line: flow change from state infection (nil without states)
	dTot   []int // per line: total flow-measurement change
	dCons  []int // per bus: consumption-measurement change
	dTheta []int // per bus: state change (nil without states)

	// MaxConflicts bounds per-FindVector solver effort (0 = unlimited).
	MaxConflicts int64
	// MaxDuration bounds per-FindVector wall-clock time (0 = unlimited).
	MaxDuration time.Duration
	// MaxPivots bounds simplex pivots per FindVector call (0 = unlimited).
	MaxPivots int64
	// Certify makes every FindVector verdict carry a checked certificate
	// (smt.Solver.Certify); it can only be enabled, never disabled, so a
	// process-wide certification default is preserved.
	Certify bool
}

// NewModel builds and asserts the attack constraint system. pf is the
// current operating point (the attacker's knowledge of flows and states).
func NewModel(g *grid.Grid, plan *measure.Plan, capability Capability, pf *grid.PowerFlow) (*Model, error) {
	if err := validateInputs(g, plan, pf); err != nil {
		return nil, err
	}
	m := &Model{g: g, plan: plan, cap: capability, pf: pf, solver: smt.NewSolver(), b: expr.NewBuilder()}
	m.declareVariables()
	m.assertTopologyRules()
	m.assertTopologyFlowDeltas()
	if capability.States {
		m.assertStateInfection()
	}
	m.assertTotalDeltas()
	m.assertConsumptionDeltas()
	m.assertMeasurementAlteration()
	m.assertKnowledgeRule()
	m.assertResourceLimits()
	m.assertLoadPlausibility()
	if capability.RequireTopologyChange {
		m.assertSomeTopologyChange()
	}
	return m, nil
}

// Solver exposes the underlying SMT solver (for statistics).
func (m *Model) Solver() *smt.Solver { return m.solver }

func (m *Model) declareVariables() {
	l, b := m.g.NumLines(), m.g.NumBuses()
	s := m.solver
	m.p = make([]int, l+1)
	m.q = make([]int, l+1)
	m.k = make([]int, l+1)
	m.dTopo = make([]int, l+1)
	m.dTot = make([]int, l+1)
	for i := 1; i <= l; i++ {
		m.p[i] = s.NewBool(fmt.Sprintf("p%d", i))
		m.q[i] = s.NewBool(fmt.Sprintf("q%d", i))
		m.k[i] = s.NewBool(fmt.Sprintf("k%d", i))
		m.dTopo[i] = s.NewReal(fmt.Sprintf("dTopo%d", i))
		m.dTot[i] = s.NewReal(fmt.Sprintf("dTot%d", i))
	}
	m.a = make([]int, m.plan.M()+1)
	for i := 1; i <= m.plan.M(); i++ {
		m.a[i] = s.NewBool(fmt.Sprintf("a%d", i))
	}
	m.h = make([]int, b+1)
	for j := 1; j <= b; j++ {
		m.h[j] = s.NewBool(fmt.Sprintf("h%d", j))
	}
	m.dCons = make([]int, b+1)
	for j := 1; j <= b; j++ {
		m.dCons[j] = s.NewReal(fmt.Sprintf("dCons%d", j))
	}
	if m.cap.States {
		m.c = make([]int, b+1)
		m.dTheta = make([]int, b+1)
		for j := 1; j <= b; j++ {
			m.c[j] = s.NewBool(fmt.Sprintf("c%d", j))
			m.dTheta[j] = s.NewReal(fmt.Sprintf("dTheta%d", j))
		}
		m.dState = make([]int, l+1)
		for i := 1; i <= l; i++ {
			m.dState[i] = s.NewReal(fmt.Sprintf("dState%d", i))
		}
	}
}

// assertTopologyRules encodes Eqs. 10-12: which lines can be excluded or
// included, and the mapped-topology indicator k_i.
func (m *Model) assertTopologyRules() {
	s, b := m.solver, m.b
	for _, ln := range m.g.Lines {
		i := ln.ID
		pF, qF, kF := b.BoolVar(m.p[i]), b.BoolVar(m.q[i]), b.BoolVar(m.k[i])
		// Eq. 11: p_i -> u_i & !v_i & !w_i (plus the input's per-line
		// attacker ability flag).
		if !(ln.InService && !ln.Core && !ln.StatusSecured && ln.CanAlterStatus) {
			b.Assert(s, b.Not(pF))
		}
		// Eq. 12: q_i -> !u_i & !w_i (plus ability).
		if !(!ln.InService && !ln.StatusSecured && ln.CanAlterStatus) {
			b.Assert(s, b.Not(qF))
		}
		// Eq. 10 (as a biconditional so k_i is well defined):
		// k_i <-> (u_i & !p_i) | (!u_i & q_i).
		if ln.InService {
			b.Assert(s, b.Iff(kF, b.Not(pF)))
		} else {
			b.Assert(s, b.Iff(kF, qF))
		}
	}
}

// assertTopologyFlowDeltas encodes Eqs. 13-15: the flow-measurement changes
// required by exclusion (erase the current flow) and inclusion (fabricate
// the flow implied by the current states).
func (m *Model) assertTopologyFlowDeltas() {
	s, b := m.solver, m.b
	for _, ln := range m.g.Lines {
		i := ln.ID
		dv := b.RealVar(m.dTopo[i])
		pF, qF := b.BoolVar(m.p[i]), b.BoolVar(m.q[i])
		if ln.InService {
			// Eq. 13: p_i -> dTopo_i = -P_i^L (current flow).
			b.Assert(s, b.Implies(pF, b.CmpFloat(dv, smt.OpEQ, -m.pf.LineFlow[i-1])))
		}
		if !ln.InService {
			// Eq. 14: q_i -> dTopo_i = d_i*(theta_f - theta_e) estimated
			// from the current states.
			est := ln.Admittance * (m.pf.Theta[ln.From-1] - m.pf.Theta[ln.To-1])
			b.Assert(s, b.Implies(qF, b.CmpFloat(dv, smt.OpEQ, est)))
		}
		// Eq. 15: no topology error on i -> dTopo_i = 0.
		b.Assert(s, b.Implies(b.Not(b.Or(pF, qF)), b.CmpInt(dv, smt.OpEQ, 0)))
	}
}

// assertStateInfection encodes Eqs. 23-26: state deltas drive flow deltas on
// mapped lines; unmapped lines see no state-driven change; c_j marks
// infected states.
func (m *Model) assertStateInfection() {
	s, b := m.solver, m.b
	// The reference angle is fixed by convention and cannot be infected.
	b.Assert(s, b.CmpInt(b.RealVar(m.dTheta[m.g.RefBus]), smt.OpEQ, 0))
	b.Assert(s, b.Not(b.BoolVar(m.c[m.g.RefBus])))
	for _, ln := range m.g.Lines {
		i := ln.ID
		kF := b.BoolVar(m.k[i])
		// Eq. 24: k_i -> dState_i = d_i*(dTheta_f - dTheta_e).
		rel := b.Sum(b.RealVar(m.dState[i]),
			b.ScaleFloat(-ln.Admittance, b.RealVar(m.dTheta[ln.From])),
			b.ScaleFloat(ln.Admittance, b.RealVar(m.dTheta[ln.To])))
		b.Assert(s, b.Implies(kF, b.CmpInt(rel, smt.OpEQ, 0)))
		// Eq. 25: !k_i -> dState_i = 0.
		b.Assert(s, b.Implies(b.Not(kF), b.CmpInt(b.RealVar(m.dState[i]), smt.OpEQ, 0)))
	}
	// Eq. 26 (both directions): c_j <-> dTheta_j != 0.
	for j := 1; j <= m.g.NumBuses(); j++ {
		if j == m.g.RefBus {
			continue
		}
		b.Assert(s, b.Iff(b.BoolVar(m.c[j]), b.CmpInt(b.RealVar(m.dTheta[j]), smt.OpNE, 0)))
	}
}

// assertTotalDeltas encodes Eq. 27: total flow change is the sum of the
// topology-driven and state-driven changes.
func (m *Model) assertTotalDeltas() {
	s, b := m.solver, m.b
	for i := 1; i <= m.g.NumLines(); i++ {
		parts := []*expr.Node{b.RealVar(m.dTot[i]), b.Neg(b.RealVar(m.dTopo[i]))}
		if m.cap.States {
			parts = append(parts, b.Neg(b.RealVar(m.dState[i])))
		}
		b.Assert(s, b.CmpInt(b.Sum(parts...), smt.OpEQ, 0))
	}
}

// assertConsumptionDeltas encodes Eqs. 16/28: consumption-measurement
// changes aggregate the incident flow changes.
func (m *Model) assertConsumptionDeltas() {
	s, b := m.solver, m.b
	for j := 1; j <= m.g.NumBuses(); j++ {
		parts := []*expr.Node{b.RealVar(m.dCons[j])}
		for _, ln := range m.g.Lines {
			if ln.To == j {
				parts = append(parts, b.Neg(b.RealVar(m.dTot[ln.ID])))
			}
			if ln.From == j {
				parts = append(parts, b.RealVar(m.dTot[ln.ID]))
			}
		}
		b.Assert(s, b.CmpInt(b.Sum(parts...), smt.OpEQ, 0))
	}
}

// assertMeasurementAlteration encodes Eqs. 17/18/29 (a_i iff the taken
// measurement's value must change) and Eq. 20 (alteration requires access
// and no integrity protection).
func (m *Model) assertMeasurementAlteration() {
	s, b := m.solver, m.b
	assertFor := func(meas int, delta *expr.Node) {
		aF := b.BoolVar(m.a[meas])
		if !m.plan.Taken[meas] {
			b.Assert(s, b.Not(aF))
			return
		}
		// The forward and backward flow measurements of a line share the same
		// delta atom; hash-consing makes the second Iff the identical node, so
		// it lowers (and Tseitins) to the already-emitted clauses.
		b.Assert(s, b.Iff(aF, b.CmpInt(delta, smt.OpNE, 0)))
		// Eq. 20: a_i -> r_i & !s_i.
		if !m.plan.Accessible[meas] || m.plan.Secured[meas] {
			b.Assert(s, b.Not(aF))
		}
	}
	for i := 1; i <= m.g.NumLines(); i++ {
		assertFor(m.plan.ForwardIndex(i), b.RealVar(m.dTot[i]))
		assertFor(m.plan.BackwardIndex(i), b.RealVar(m.dTot[i]))
	}
	for j := 1; j <= m.g.NumBuses(); j++ {
		assertFor(m.plan.ConsumptionIndex(j), b.RealVar(m.dCons[j]))
	}
}

// assertKnowledgeRule encodes Eq. 19: changing a line's flow measurements
// requires knowing its admittance.
func (m *Model) assertKnowledgeRule() {
	s, b := m.solver, m.b
	for _, ln := range m.g.Lines {
		i := ln.ID
		if ln.AdmittanceKnown {
			continue
		}
		if m.plan.Taken[m.plan.ForwardIndex(i)] || m.plan.Taken[m.plan.BackwardIndex(i)] {
			b.Assert(s, b.CmpInt(b.RealVar(m.dTot[i]), smt.OpEQ, 0))
		}
	}
}

// assertResourceLimits encodes Eq. 21 (altered measurements pin their
// substation) and Eq. 22 plus the measurement budget.
func (m *Model) assertResourceLimits() {
	s, b := m.solver, m.b
	for i := 1; i <= m.plan.M(); i++ {
		bus := m.plan.BusOf(i, m.g)
		if bus >= 1 {
			b.Assert(s, b.Implies(b.BoolVar(m.a[i]), b.BoolVar(m.h[bus])))
		}
	}
	if m.cap.MaxMeasurements > 0 {
		vars := make([]int, 0, m.plan.M())
		for i := 1; i <= m.plan.M(); i++ {
			vars = append(vars, m.a[i])
		}
		s.AssertAtMostK(vars, m.cap.MaxMeasurements)
	}
	if m.cap.MaxBuses > 0 {
		vars := make([]int, 0, m.g.NumBuses())
		for j := 1; j <= m.g.NumBuses(); j++ {
			vars = append(vars, m.h[j])
		}
		s.AssertAtMostK(vars, m.cap.MaxBuses)
	}
}

// assertLoadPlausibility encodes Eq. 36 territory: the loads the operator
// will estimate must stay inside the per-bus plausible bounds; buses without
// load cannot acquire one (generation measurements are secure, paper
// Sec. II-F).
func (m *Model) assertLoadPlausibility() {
	s, b := m.solver, m.b
	for j := 1; j <= m.g.NumBuses(); j++ {
		dc := b.RealVar(m.dCons[j])
		ld, hasLoad := m.g.LoadAt(j)
		if !hasLoad {
			b.Assert(s, b.CmpInt(dc, smt.OpEQ, 0))
			continue
		}
		// observed = existing + dCons in [MinP, MaxP].
		b.Assert(s, b.CmpFloat(dc, smt.OpGE, ld.MinP-ld.P))
		b.Assert(s, b.CmpFloat(dc, smt.OpLE, ld.MaxP-ld.P))
	}
}

// assertSomeTopologyChange demands at least one exclusion or inclusion.
func (m *Model) assertSomeTopologyChange() {
	vars := make([]int, 0, 2*m.g.NumLines())
	for i := 1; i <= m.g.NumLines(); i++ {
		vars = append(vars, m.p[i], m.q[i])
	}
	m.solver.AssertAtLeastOne(vars)
}

// FindVector searches for a stealthy attack vector. It returns nil (and no
// error) when the attack space is exhausted (unsat). Under Certify, the
// verdict's certificate is checked before it is returned, and a failed check
// is an error.
func (m *Model) FindVector() (*Vector, error) {
	m.solver.MaxConflicts = m.MaxConflicts
	m.solver.MaxDuration = m.MaxDuration
	m.solver.MaxPivots = m.MaxPivots
	if m.Certify {
		m.solver.Certify = true
	}
	res, err := m.solver.CheckContext(context.Background())
	if err != nil {
		return nil, fmt.Errorf("attack: solver: %w", err)
	}
	if res != smt.Sat {
		return nil, nil
	}
	return m.extract(), nil
}

func (m *Model) extract() *Vector {
	s := m.solver
	v := &Vector{
		DeltaTheta:       make([]float64, m.g.NumBuses()),
		DeltaFlow:        make([]float64, m.g.NumLines()),
		DeltaConsumption: make([]float64, m.g.NumBuses()),
		ObservedLoads:    make([]float64, m.g.NumBuses()),
	}
	var mapped []int
	for i := 1; i <= m.g.NumLines(); i++ {
		if s.BoolValue(m.p[i]) {
			v.ExcludedLines = append(v.ExcludedLines, i)
		}
		if s.BoolValue(m.q[i]) {
			v.IncludedLines = append(v.IncludedLines, i)
		}
		if s.BoolValue(m.k[i]) {
			mapped = append(mapped, i)
		}
		v.DeltaFlow[i-1] = s.RealValueFloat(m.dTot[i])
	}
	v.MappedTopology = grid.NewTopology(mapped)
	for i := 1; i <= m.plan.M(); i++ {
		if s.BoolValue(m.a[i]) {
			v.AlteredMeasurements = append(v.AlteredMeasurements, i)
		}
	}
	loads := m.g.LoadVector()
	for j := 1; j <= m.g.NumBuses(); j++ {
		if s.BoolValue(m.h[j]) {
			v.CompromisedBuses = append(v.CompromisedBuses, j)
		}
		v.DeltaConsumption[j-1] = s.RealValueFloat(m.dCons[j])
		v.ObservedLoads[j-1] = loads[j-1] + v.DeltaConsumption[j-1]
		if m.cap.States {
			if s.BoolValue(m.c[j]) {
				v.InfectedStates = append(v.InfectedStates, j)
			}
			v.DeltaTheta[j-1] = s.RealValueFloat(m.dTheta[j])
		}
	}
	return v
}

// Block excludes the found vector from future FindVector calls. Two attack
// vectors within `precision` of each other on every consumption delta and
// with identical discrete choices are treated as the same vector (the
// paper's 2-digit quantization; pass 0.01 for 2 digits).
func (m *Model) Block(v *Vector, precision float64) {
	if precision <= 0 {
		precision = 0.01
	}
	half := precision / 2
	b := m.b
	var alts []*expr.Node
	lit := func(handle int, val bool) *expr.Node {
		bv := b.BoolVar(handle)
		if val {
			return b.Not(bv) // differ by flipping this choice
		}
		return bv
	}
	exSet := intSet(v.ExcludedLines)
	inSet := intSet(v.IncludedLines)
	for i := 1; i <= m.g.NumLines(); i++ {
		alts = append(alts, lit(m.p[i], exSet[i]), lit(m.q[i], inSet[i]))
	}
	if m.cap.States {
		stSet := intSet(v.InfectedStates)
		for j := 1; j <= m.g.NumBuses(); j++ {
			alts = append(alts, lit(m.c[j], stSet[j]))
		}
	}
	for j := 1; j <= m.g.NumBuses(); j++ {
		if _, hasLoad := m.g.LoadAt(j); !hasLoad {
			continue
		}
		dc := b.RealVar(m.dCons[j])
		val := v.DeltaConsumption[j-1]
		if math.Abs(val) < half && val != 0 {
			val = 0
		}
		alts = append(alts,
			b.CmpFloat(dc, smt.OpLT, val-half),
			b.CmpFloat(dc, smt.OpGT, val+half),
		)
	}
	b.Assert(m.solver, b.Or(alts...))
}

func intSet(xs []int) map[int]bool {
	s := make(map[int]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

// Replay verifies a vector against the real telemetry pipeline: it applies
// the false data to an exact measurement snapshot, runs the WLS estimator
// on the poisoned topology, and reports the resulting residual and load
// estimates. A stealthy vector yields a (numerically) zero residual.
type Replay struct {
	Residual      float64
	LoadEstimates []float64 // per bus
	Theta         []float64
}

// BuildAttackedMeasurements applies the vector's false data to a measurement
// snapshot taken at the operating point.
func BuildAttackedMeasurements(g *grid.Grid, plan *measure.Plan, pf *grid.PowerFlow, v *Vector) (*measure.Vector, error) {
	z, err := plan.FromPowerFlow(g, pf, 0, nil)
	if err != nil {
		return nil, err
	}
	for line := 1; line <= g.NumLines(); line++ {
		d := v.DeltaFlow[line-1]
		if d == 0 {
			continue
		}
		if i := plan.ForwardIndex(line); z.Present[i] {
			z.Values[i] += d
		}
		if i := plan.BackwardIndex(line); z.Present[i] {
			z.Values[i] -= d
		}
	}
	for bus := 1; bus <= g.NumBuses(); bus++ {
		if d := v.DeltaConsumption[bus-1]; d != 0 {
			if i := plan.ConsumptionIndex(bus); z.Present[i] {
				z.Values[i] += d
			}
		}
	}
	return z, nil
}
