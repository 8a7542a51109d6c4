// Package grid models a transmission power grid under the DC power-flow
// assumptions used throughout the paper: unit voltage magnitudes, lossless
// lines, and line flows linear in bus voltage phase angles.
//
// Conventions (matching the paper's Table I):
//   - buses are numbered 1..b; lines are numbered 1..l;
//   - line i runs from bus f_i to bus e_i with admittance d_i (the
//     reciprocal of reactance) and flow P_i = d_i (theta_f - theta_e);
//   - there are m = 2l + b potential measurements: forward line flows
//     (1..l), backward line flows (l+1..2l), bus power consumptions
//     (2l+1..2l+b);
//   - all powers are expressed in per-unit on a common MVA base.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrInvalid reports a malformed grid description.
var ErrInvalid = errors.New("grid: invalid model")

// Bus is a node of the network.
type Bus struct {
	ID           int // 1-based
	HasGenerator bool
	HasLoad      bool
}

// Line is a transmission branch between two buses.
type Line struct {
	ID         int     // 1-based
	From, To   int     // bus IDs
	Admittance float64 // d_i, p.u. (reciprocal of reactance)
	Capacity   float64 // maximum |flow|, p.u.

	// Attack-relevant status attributes (paper Table I).
	InService       bool // u_i: present in the true topology
	Core            bool // v_i: fixed line, never opened
	StatusSecured   bool // w_i: status telemetry integrity-protected
	CanAlterStatus  bool // the attacker can tamper with this line's status
	AdmittanceKnown bool // g_i: admittance known to the attacker
}

// Generator is a dispatchable source connected to a bus, with a linear cost
// curve C(P) = Alpha + Beta*P (the paper's single-segment piecewise-linear
// form).
type Generator struct {
	Bus        int
	MaxP, MinP float64 // generation limits, p.u.
	Alpha      float64 // fixed cost coefficient
	Beta       float64 // marginal cost coefficient ($ per p.u.)
}

// Cost returns the generation cost at output p.
func (g Generator) Cost(p float64) float64 { return g.Alpha + g.Beta*p }

// Load is a demand connected to a bus, with the plausible range the operator
// expects (paper Eq. 36).
type Load struct {
	Bus        int
	P          float64 // existing (true) load, p.u.
	MaxP, MinP float64 // plausible bounds, p.u.
}

// Grid is a complete system description.
type Grid struct {
	Name       string
	Buses      []Bus
	Lines      []Line
	Generators []Generator
	Loads      []Load
	RefBus     int // slack/reference bus ID (phase angle fixed at 0)
}

// NumBuses returns b.
func (g *Grid) NumBuses() int { return len(g.Buses) }

// NumLines returns l.
func (g *Grid) NumLines() int { return len(g.Lines) }

// NumMeasurements returns m = 2l + b, the count of potential measurements.
func (g *Grid) NumMeasurements() int { return 2*len(g.Lines) + len(g.Buses) }

// Validate checks structural consistency: contiguous IDs, in-range bus
// references, positive admittances, sane limits.
func (g *Grid) Validate() error {
	b := len(g.Buses)
	if b == 0 {
		return fmt.Errorf("%w: no buses", ErrInvalid)
	}
	for i, bus := range g.Buses {
		if bus.ID != i+1 {
			return fmt.Errorf("%w: bus %d has ID %d, want %d", ErrInvalid, i, bus.ID, i+1)
		}
	}
	if g.RefBus < 1 || g.RefBus > b {
		return fmt.Errorf("%w: reference bus %d out of range 1..%d", ErrInvalid, g.RefBus, b)
	}
	for i, ln := range g.Lines {
		if ln.ID != i+1 {
			return fmt.Errorf("%w: line %d has ID %d, want %d", ErrInvalid, i, ln.ID, i+1)
		}
		if ln.From < 1 || ln.From > b || ln.To < 1 || ln.To > b {
			return fmt.Errorf("%w: line %d references bus outside 1..%d", ErrInvalid, ln.ID, b)
		}
		if ln.From == ln.To {
			return fmt.Errorf("%w: line %d is a self-loop at bus %d", ErrInvalid, ln.ID, ln.From)
		}
		// NaN passes every ordered comparison below, and non-finite values
		// panic the exact-arithmetic solver core, so finiteness is checked
		// explicitly first.
		if !isFinite(ln.Admittance) || !isFinite(ln.Capacity) {
			return fmt.Errorf("%w: line %d has non-finite admittance %v or capacity %v", ErrInvalid, ln.ID, ln.Admittance, ln.Capacity)
		}
		if ln.Admittance <= 0 {
			return fmt.Errorf("%w: line %d has non-positive admittance %v (a zero-reactance or open branch is not a DC line)", ErrInvalid, ln.ID, ln.Admittance)
		}
		if ln.Capacity <= 0 {
			return fmt.Errorf("%w: line %d has non-positive capacity %v", ErrInvalid, ln.ID, ln.Capacity)
		}
	}
	for _, gen := range g.Generators {
		if gen.Bus < 1 || gen.Bus > b {
			return fmt.Errorf("%w: generator at unknown bus %d", ErrInvalid, gen.Bus)
		}
		if !isFinite(gen.MinP) || !isFinite(gen.MaxP) || !isFinite(gen.Alpha) || !isFinite(gen.Beta) {
			return fmt.Errorf("%w: generator at bus %d has a non-finite parameter", ErrInvalid, gen.Bus)
		}
		if gen.MinP > gen.MaxP {
			return fmt.Errorf("%w: generator at bus %d has MinP %v > MaxP %v", ErrInvalid, gen.Bus, gen.MinP, gen.MaxP)
		}
	}
	for _, ld := range g.Loads {
		if ld.Bus < 1 || ld.Bus > b {
			return fmt.Errorf("%w: load at unknown bus %d", ErrInvalid, ld.Bus)
		}
		if !isFinite(ld.P) || !isFinite(ld.MinP) || !isFinite(ld.MaxP) {
			return fmt.Errorf("%w: load at bus %d has a non-finite parameter", ErrInvalid, ld.Bus)
		}
		if ld.MinP > ld.MaxP {
			return fmt.Errorf("%w: load at bus %d has MinP %v > MaxP %v", ErrInvalid, ld.Bus, ld.MinP, ld.MaxP)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// GeneratorAt returns the generator connected at the bus, if any. The paper
// assumes at most one generator per bus.
func (g *Grid) GeneratorAt(bus int) (Generator, bool) {
	for _, gen := range g.Generators {
		if gen.Bus == bus {
			return gen, true
		}
	}
	return Generator{}, false
}

// LoadAt returns the load connected at the bus, if any.
func (g *Grid) LoadAt(bus int) (Load, bool) {
	for _, ld := range g.Loads {
		if ld.Bus == bus {
			return ld, true
		}
	}
	return Load{}, false
}

// TotalLoad returns the sum of existing loads.
func (g *Grid) TotalLoad() float64 {
	var s float64
	for _, ld := range g.Loads {
		s += ld.P
	}
	return s
}

// LoadVector returns the per-bus load vector (index 0 = bus 1).
func (g *Grid) LoadVector() []float64 {
	out := make([]float64, len(g.Buses))
	for _, ld := range g.Loads {
		out[ld.Bus-1] = ld.P
	}
	return out
}

// InServiceLines returns the IDs of lines present in the true topology.
func (g *Grid) InServiceLines() []int {
	var out []int
	for _, ln := range g.Lines {
		if ln.InService {
			out = append(out, ln.ID)
		}
	}
	return out
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	c := &Grid{Name: g.Name, RefBus: g.RefBus}
	c.Buses = append([]Bus(nil), g.Buses...)
	c.Lines = append([]Line(nil), g.Lines...)
	c.Generators = append([]Generator(nil), g.Generators...)
	c.Loads = append([]Load(nil), g.Loads...)
	return c
}

// AppendBits appends to buf the bits of every field of g but Name, in slice
// order, floats as their IEEE-754 bits: two grids append the same bytes
// exactly when every computation on them reads the same values. Caches
// that must notice a grid replaced or edited in place key on it.
func (g *Grid) AppendBits(buf []byte) []byte {
	u := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	f := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	b := func(vs ...bool) {
		for _, v := range vs {
			if v {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	u(g.RefBus)
	u(len(g.Buses))
	for _, bus := range g.Buses {
		u(bus.ID)
		b(bus.HasGenerator, bus.HasLoad)
	}
	u(len(g.Lines))
	for _, ln := range g.Lines {
		u(ln.ID)
		u(ln.From)
		u(ln.To)
		f(ln.Admittance)
		f(ln.Capacity)
		b(ln.InService, ln.Core, ln.StatusSecured, ln.CanAlterStatus, ln.AdmittanceKnown)
	}
	u(len(g.Generators))
	for _, gen := range g.Generators {
		u(gen.Bus)
		f(gen.MaxP)
		f(gen.MinP)
		f(gen.Alpha)
		f(gen.Beta)
	}
	u(len(g.Loads))
	for _, ld := range g.Loads {
		u(ld.Bus)
		f(ld.P)
		f(ld.MaxP)
		f(ld.MinP)
	}
	return buf
}

// Topology is the set of lines mapped as closed, as produced by the topology
// processor. Index by line ID via Contains.
type Topology struct {
	closed map[int]bool
}

// NewTopology builds a topology from the given closed line IDs.
func NewTopology(closedLines []int) Topology {
	m := make(map[int]bool, len(closedLines))
	for _, id := range closedLines {
		m[id] = true
	}
	return Topology{closed: m}
}

// TrueTopology returns the topology consisting of all in-service lines.
func (g *Grid) TrueTopology() Topology {
	return NewTopology(g.InServiceLines())
}

// Contains reports whether line id is mapped as closed.
func (t Topology) Contains(id int) bool { return t.closed[id] }

// Lines returns the closed line IDs in ascending order.
func (t Topology) Lines() []int {
	out := make([]int, 0, len(t.closed))
	for id := range t.closed {
		out = append(out, id)
	}
	sortInts(out)
	return out
}

// Size returns the number of closed lines.
func (t Topology) Size() int { return len(t.closed) }

// WithExcluded returns a copy of t with line id removed.
func (t Topology) WithExcluded(id int) Topology {
	out := NewTopology(t.Lines())
	delete(out.closed, id)
	return out
}

// WithIncluded returns a copy of t with line id added.
func (t Topology) WithIncluded(id int) Topology {
	out := NewTopology(t.Lines())
	out.closed[id] = true
	return out
}

// Connected reports whether every bus is reachable from the reference bus
// through the topology's closed lines.
func (g *Grid) Connected(t Topology) bool {
	adj := make(map[int][]int, len(g.Buses))
	for _, ln := range g.Lines {
		if !t.Contains(ln.ID) {
			continue
		}
		adj[ln.From] = append(adj[ln.From], ln.To)
		adj[ln.To] = append(adj[ln.To], ln.From)
	}
	seen := make(map[int]bool, len(g.Buses))
	stack := []int{g.RefBus}
	seen[g.RefBus] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[n] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(g.Buses)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
