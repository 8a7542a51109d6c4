package fleet

import (
	"sort"
	"time"

	"gridattack/internal/ems"
)

// SoakReport is the accumulated outcome of a Run: the per-cycle verdict
// sequence, outcome counters, cycle-latency percentiles, per-RTU health, and
// the monitor's drift checks.
type SoakReport struct {
	// Cycles is how many cycles this Run executed; Resumed is how many the
	// journal had already completed before it.
	Cycles  int `json:"cycles"`
	Resumed int `json:"resumed,omitempty"`

	// Counts maps outcome label -> cycle count.
	Counts map[string]int `json:"counts"`
	// Outcomes is the cycle verdict sequence in order (one per cycle run).
	Outcomes []string `json:"outcomes,omitempty"`

	// Attempts counts every RTU poll attempt across the run.
	Attempts int `json:"attempts"`

	// Latency percentiles over cycle wall-clock time, filled by the end of
	// Run.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`

	// RTUs is the final per-RTU health table (filled by the end of Run).
	RTUs []RTUStat `json:"rtus,omitempty"`

	// Monitor holds one entry per drift check.
	Monitor []MonitorResult `json:"monitor,omitempty"`

	// OPF counts how this supervisor's pipeline answered the cycles' OPFs
	// (memo hits, cold solves, re-optimizations and their pivots), filled
	// by the end of Run; a resumed supervisor counts from its resume.
	OPF ems.OPFStats `json:"opf"`

	latencies []time.Duration
}

func newSoakReport() *SoakReport {
	return &SoakReport{Counts: make(map[string]int)}
}

func (r *SoakReport) observe(outcome string, elapsed time.Duration) {
	r.Cycles++
	r.Counts[outcome]++
	r.latencies = append(r.latencies, elapsed)
}

// Held returns how many cycles held the previous dispatch for any reason
// (islanded/frozen holds, bad data, watchdog overruns).
func (r *SoakReport) Held() int {
	return r.Counts[OutcomeHeld] + r.Counts[OutcomeBadData] + r.Counts[OutcomeWatchdog]
}

// Degraded returns how many cycles ran in a degraded or stale mode.
func (r *SoakReport) Degraded() int {
	return r.Counts[OutcomeDegraded] + r.Counts[OutcomeStale]
}

// Recovered sums per-RTU recovery counts (quarantine -> readmitted).
func (r *SoakReport) Recovered() int {
	total := 0
	for _, s := range r.RTUs {
		total += s.Recoveries
	}
	return total
}

// finalize computes the latency percentiles and is called by the supervisor
// with the final health table.
func (r *SoakReport) finalize(rtus []RTUStat) {
	r.RTUs = rtus
	if len(r.latencies) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pick := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	r.LatencyP50 = pick(0.50)
	r.LatencyP90 = pick(0.90)
	r.LatencyP99 = pick(0.99)
	r.LatencyMax = sorted[len(sorted)-1]
}

// finishReport folds the final health table, latency percentiles and OPF
// counts into the report.
func (s *Supervisor) finishReport() {
	s.report.finalize(s.health.Snapshot())
	s.report.OPF = s.pipe.OPFStats()
}
