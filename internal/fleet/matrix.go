// Package fleet is the supervised continuous-operation runtime: it drives
// the full telemetry -> topology -> state estimation -> bad-data detection
// -> OPF -> AGC cycle at a fixed cadence against a real-TCP RTU fleet, with
// fleet-wide fault injection, a per-RTU health state machine, a degradation
// ladder, a per-cycle deadline watchdog, a crash-resumable loop journal,
// and an online attack-impact monitor that re-runs the impact
// analysis when the mapped topology drifts. It turns the repo's
// "analyze one snapshot" layers into "keep a live grid running under fault
// and attack" (paper Fig. 1 run continuously).
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridattack/internal/faultinject"
)

// ErrMatrix reports a malformed fault-matrix specification.
var ErrMatrix = errors.New("fleet: invalid fault matrix")

// Outage is one entry of the fault matrix: a fault applied to every poll of
// one bus's RTU over an inclusive range of cycles.
type Outage struct {
	Bus      int
	From, To int // inclusive cycle range, 1-based
	Fault    faultinject.Fault
}

// Matrix is a deterministic, cycle-keyed fault schedule for a whole fleet.
// Unlike the probabilistic per-connection injector config, the matrix is
// indexed by (bus, cycle), so a soak run's fault trace is independent of
// connection timing, retries, and resume points — the property the
// kill-and-resume and recovery bit-identity tests rely on.
type Matrix struct {
	Outages []Outage
}

// FaultsFor returns the fault scheduled for a bus at a cycle, if any. When
// several outages overlap, the first in specification order wins.
func (m *Matrix) FaultsFor(bus, cycle int) (faultinject.Fault, bool) {
	if m == nil {
		return faultinject.Fault{}, false
	}
	for _, o := range m.Outages {
		if o.Bus == bus && cycle >= o.From && cycle <= o.To {
			return o.Fault, true
		}
	}
	return faultinject.Fault{}, false
}

// Buses returns the distinct buses the matrix ever faults, ascending.
func (m *Matrix) Buses() []int {
	if m == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, o := range m.Outages {
		if !seen[o.Bus] {
			seen[o.Bus] = true
			out = append(out, o.Bus)
		}
	}
	sort.Ints(out)
	return out
}

// MaxCycle returns the last cycle any outage covers (0 for an empty matrix).
func (m *Matrix) MaxCycle() int {
	max := 0
	if m == nil {
		return 0
	}
	for _, o := range m.Outages {
		if o.To > max {
			max = o.To
		}
	}
	return max
}

// Spec renders the matrix in the ParseMatrix grammar; it is the matrix's
// canonical form and what the loop journal fingerprints.
func (m *Matrix) Spec() string {
	if m == nil {
		return ""
	}
	parts := make([]string, 0, len(m.Outages))
	for _, o := range m.Outages {
		kind := o.Fault.Kind.String()
		if o.Fault.Kind == faultinject.Delay && o.Fault.Delay > 0 {
			kind += ":" + o.Fault.Delay.String()
		}
		span := strconv.Itoa(o.From)
		if o.To != o.From {
			span += ".." + strconv.Itoa(o.To)
		}
		parts = append(parts, fmt.Sprintf("bus%d:%s@%s", o.Bus, kind, span))
	}
	return strings.Join(parts, ";")
}

// ParseMatrix parses a semicolon-separated fault-matrix specification:
//
//	bus3:drop@5..10;bus7:reset@2;bus1:delay:200ms@4..6
//
// Each entry is bus<N>:<kind>[:<duration>]@<from>[..<to>] with 1-based
// inclusive cycle numbers; <duration> applies to delay faults only. An empty
// string yields a nil matrix (no faults).
func ParseMatrix(s string) (*Matrix, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	m := &Matrix{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		busPart, rest, ok := strings.Cut(part, ":")
		if !ok || !strings.HasPrefix(busPart, "bus") {
			return nil, fmt.Errorf("%w: %q (want bus<N>:<kind>@<cycles>)", ErrMatrix, part)
		}
		bus, err := strconv.Atoi(strings.TrimPrefix(busPart, "bus"))
		if err != nil || bus < 1 {
			return nil, fmt.Errorf("%w: bus %q", ErrMatrix, busPart)
		}
		kindPart, span, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("%w: %q lacks @<cycles>", ErrMatrix, part)
		}
		f, err := parseFaultKind(kindPart)
		if err != nil {
			return nil, err
		}
		from, to, err := parseSpan(span)
		if err != nil {
			return nil, err
		}
		m.Outages = append(m.Outages, Outage{Bus: bus, From: from, To: to, Fault: f})
	}
	if len(m.Outages) == 0 {
		return nil, nil
	}
	return m, nil
}

func parseFaultKind(s string) (faultinject.Fault, error) {
	name, durStr, hasDur := strings.Cut(s, ":")
	var f faultinject.Fault
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "drop":
		f.Kind = faultinject.Drop
	case "delay":
		f.Kind = faultinject.Delay
		f.Delay = 50 * time.Millisecond
	case "corrupt":
		f.Kind = faultinject.Corrupt
	case "truncate":
		f.Kind = faultinject.Truncate
	case "reset":
		f.Kind = faultinject.Reset
	default:
		return f, fmt.Errorf("%w: unknown fault kind %q", ErrMatrix, name)
	}
	if hasDur {
		if f.Kind != faultinject.Delay {
			return f, fmt.Errorf("%w: duration on non-delay fault %q", ErrMatrix, s)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return f, fmt.Errorf("%w: delay duration %q", ErrMatrix, durStr)
		}
		f.Delay = d
	}
	return f, nil
}

func parseSpan(s string) (from, to int, err error) {
	fromStr, toStr, ranged := strings.Cut(strings.TrimSpace(s), "..")
	from, err = strconv.Atoi(fromStr)
	if err != nil || from < 1 {
		return 0, 0, fmt.Errorf("%w: cycle %q", ErrMatrix, fromStr)
	}
	to = from
	if ranged {
		to, err = strconv.Atoi(toStr)
		if err != nil || to < from {
			return 0, 0, fmt.Errorf("%w: cycle range %q", ErrMatrix, s)
		}
	}
	return from, to, nil
}

// RandomMatrix draws a deterministic outage schedule: each bus independently
// starts an outage at any cycle with probability rate; outages last 1 to
// maxLen cycles and pick uniformly among the connection-killing fault kinds
// (drop, corrupt, truncate, reset — delay is excluded so the schedule's
// effect is timing-independent). Identical arguments yield an identical
// matrix, making "fault rate" soak sweeps reproducible.
func RandomMatrix(seed int64, buses, cycles int, rate float64, maxLen int) *Matrix {
	if rate <= 0 || buses < 1 || cycles < 1 {
		return nil
	}
	if maxLen < 1 {
		maxLen = 4
	}
	kinds := []faultinject.Kind{faultinject.Drop, faultinject.Corrupt, faultinject.Truncate, faultinject.Reset}
	rng := rand.New(rand.NewSource(seed))
	m := &Matrix{}
	for bus := 1; bus <= buses; bus++ {
		for c := 1; c <= cycles; {
			if rng.Float64() >= rate {
				c++
				continue
			}
			n := 1 + rng.Intn(maxLen)
			kind := kinds[rng.Intn(len(kinds))]
			to := c + n - 1
			if to > cycles {
				to = cycles
			}
			m.Outages = append(m.Outages, Outage{Bus: bus, From: c, To: to, Fault: faultinject.Fault{Kind: kind}})
			c = to + 1
		}
	}
	if len(m.Outages) == 0 {
		return nil
	}
	return m
}
