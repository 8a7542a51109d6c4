// Loop journal: the continuous-operation loop's progress on the shared
// durable log (internal/journal). A supervisor killed mid-soak resumes from
// it with the remaining cycles' verdicts identical to an uninterrupted run.
// State is delta-encoded: a cycle record carries a Disp/Tele/Fleet
// sub-record only when that slice of state changed, so a healthy steady
// state costs a few dozen bytes per cycle.
package fleet

import "gridattack/internal/journal"

// journalVersion identifies the loop-journal format; bump on layout changes.
const journalVersion = 1

// ErrJournal reports a corrupt, mismatched, or unreadable loop journal. It
// is the shared log's journal.ErrInvalid.
var ErrJournal = journal.ErrInvalid

// Journal record kinds.
const (
	recCycle   = "cycle"
	recMonitor = "monitor"
)

// JournalConfig fingerprints the soak a journal belongs to. Resuming against
// a journal whose configuration differs is refused: the journaled fault
// trace and verdicts would not match the fleet the supervisor rebuilds.
// Cadence and deadline are deliberately excluded — they shape wall-clock
// timing, not verdicts, and an operator may legitimately resume with a
// different pacing.
type JournalConfig struct {
	Case            string    `json:"case"`
	Buses           int       `json:"buses"`
	Lines           int       `json:"lines"`
	MatrixSpec      string    `json:"matrix_spec,omitempty"`
	Retries         int       `json:"retries"`
	QuarantineAfter int       `json:"quarantine_after"`
	ReadmitAfter    int       `json:"readmit_after"`
	DeescalateAfter int       `json:"deescalate_after"`
	FreezeAfterBad  int       `json:"freeze_after_bad"`
	Targets         []float64 `json:"targets,omitempty"`
	Operating       []float64 `json:"operating,omitempty"`
}

// DispState is the dispatch slice of loop state: what is on the machines and
// what AGC is ramping toward.
type DispState struct {
	Dispatch []float64 `json:"dispatch"`
	Setpoint []float64 `json:"setpoint"`
}

// TeleState is the telemetry slice: the last good measurement snapshot and
// the last known line statuses (keyed by line ID).
type TeleState struct {
	Values   []float64    `json:"values"`
	Present  []bool       `json:"present"`
	Statuses map[int]bool `json:"statuses"`
}

// BreakerRec checkpoints one circuit breaker. OpenUntil is in logical-clock
// nanoseconds (the supervisor drives breakers with time.Unix(0, cycle)).
type BreakerRec struct {
	Bus       int   `json:"bus"`
	Failures  int   `json:"failures"`
	Trips     int   `json:"trips"`
	OpenUntil int64 `json:"open_until,omitempty"`
}

// FleetState is the supervision slice: per-RTU health and breaker state.
type FleetState struct {
	Health   []RTUStat    `json:"health"`
	Breakers []BreakerRec `json:"breakers,omitempty"`
}

// MonitorVerdict is one target's attack-impact verdict from the online
// monitor — the journaled form of a core ladder report.
type MonitorVerdict struct {
	TargetPercent float64 `json:"target_percent"`
	Found         bool    `json:"found"`
	Exhausted     bool    `json:"exhausted"`
	BaselineCost  float64 `json:"baseline_cost"`
	AttackedCost  float64 `json:"attacked_cost,omitempty"`
	LineID        int     `json:"line_id,omitempty"`
}

// JournalRecord is one line of the loop journal after the header.
type JournalRecord struct {
	Kind string `json:"kind"`

	// Cycle fields. Cycle is 1-based; Outcome is the CycleOutcome string;
	// the state sub-records are present only when that state changed.
	Cycle     int    `json:"cycle,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	Mode      Mode   `json:"mode,omitempty"`
	Cleaner   int    `json:"cleaner,omitempty"`
	BadStreak int    `json:"bad_streak,omitempty"`
	Failed    int    `json:"failed,omitempty"`
	Skipped   int    `json:"skipped,omitempty"`

	Disp  *DispState  `json:"disp,omitempty"`
	Tele  *TeleState  `json:"tele,omitempty"`
	Fleet *FleetState `json:"fleet,omitempty"`

	// Monitor fields: verdicts for a drifted-topology snapshot, keyed by the
	// snapshot fingerprint the verdict cache uses.
	Fingerprint string           `json:"fingerprint,omitempty"`
	Verdicts    []MonitorVerdict `json:"verdicts,omitempty"`

	journal.Link
}

// Journal is an open loop journal positioned for appending.
type Journal struct{ log *journal.Log }

// CreateJournal starts a fresh loop journal at path (truncating any previous
// content) and writes the fsync'd header record.
func CreateJournal(path string, cfg JournalConfig) (*Journal, error) {
	l, err := journal.Create(path, journalVersion, cfg)
	if err != nil {
		return nil, err
	}
	return &Journal{log: l}, nil
}

// OpenJournal verifies a loop journal (see journal.Open) and returns it
// with its configuration and the records after the header. Errors from an
// invalid journal match ErrJournal.
func OpenJournal(path string) (*Journal, *JournalConfig, []JournalRecord, error) {
	var cfg JournalConfig
	l, recs, err := journal.Open[JournalRecord](path, journalVersion, &cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Journal{log: l}, &cfg, recs, nil
}

// AppendCycle records one completed supervision cycle.
func (j *Journal) AppendCycle(rec *JournalRecord) error {
	rec.Kind = recCycle
	return j.log.Append(rec)
}

// AppendMonitor records the online monitor's verdicts for a topology
// snapshot, making them replayable on resume (the verdict cache).
func (j *Journal) AppendMonitor(cycle int, fingerprint string, verdicts []MonitorVerdict) error {
	return j.log.Append(&JournalRecord{Kind: recMonitor, Cycle: cycle, Fingerprint: fingerprint, Verdicts: verdicts})
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.log.Close() }

// LoopState is the journal's records folded forward: everything a fresh
// supervisor needs to continue the loop as if never interrupted.
type LoopState struct {
	LastCycle int
	Mode      Mode
	Cleaner   int
	BadStreak int

	Disp  *DispState
	Tele  *TeleState
	Fleet *FleetState

	// MonitorCache maps snapshot fingerprints to journaled verdicts.
	MonitorCache map[string][]MonitorVerdict

	// Outcomes is the per-cycle outcome string sequence, 1-based at index 0
	// = cycle 1 (used by kill-and-resume verification and reporting).
	Outcomes []string
}

// FoldRecords replays journal records into the latest loop state.
func FoldRecords(recs []JournalRecord) *LoopState {
	st := &LoopState{MonitorCache: make(map[string][]MonitorVerdict)}
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case recCycle:
			st.LastCycle = rec.Cycle
			st.Mode = rec.Mode
			st.Cleaner = rec.Cleaner
			st.BadStreak = rec.BadStreak
			if rec.Disp != nil {
				st.Disp = rec.Disp
			}
			if rec.Tele != nil {
				st.Tele = rec.Tele
			}
			if rec.Fleet != nil {
				st.Fleet = rec.Fleet
			}
			st.Outcomes = append(st.Outcomes, rec.Outcome)
		case recMonitor:
			st.MonitorCache[rec.Fingerprint] = rec.Verdicts
		}
	}
	return st
}
