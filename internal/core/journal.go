// Checkpoint journal: the Fig. 2 loop's progress on the shared durable log
// (internal/journal), letting an analysis killed mid-run resume at the first
// incomplete iteration with verdicts identical to an uninterrupted run.
package core

import (
	"bytes"
	"encoding/json"

	"gridattack/internal/attack"
	"gridattack/internal/journal"
)

// journalVersion identifies the checkpoint format; bump on layout changes.
const journalVersion = 1

// ErrJournal reports a corrupt, mismatched, or unreadable checkpoint journal.
// It is the shared log's journal.ErrInvalid, so every integrity failure the
// log reports matches it too.
var ErrJournal = journal.ErrInvalid

// Journal record kinds. The exported names let journal consumers (the serve
// layer streams records as server-sent events) switch on JournalRecord.Kind
// without duplicating the strings.
const (
	RecIter  = "iter"
	RecFinal = "final"
)

// JournalConfig fingerprints the analysis a journal belongs to. Resuming
// against a journal whose configuration differs is refused: the journaled
// candidate sequence would not match the one the model regenerates.
type JournalConfig struct {
	// Encoding records whether the journaled run certified its SMT
	// verdicts (see journalEncoding). A resume must match it, so a
	// certified analysis never trusts a verdict no checker saw, and an
	// uncertified one never appends unchecked verdicts to a journal that
	// claims them checked.
	Encoding string `json:"encoding,omitempty"`

	Buses                 int     `json:"buses"`
	Lines                 int     `json:"lines"`
	BaselineCost          float64 `json:"baseline_cost"`
	Threshold             float64 `json:"threshold"`
	TargetPercent         float64 `json:"target_percent"`
	MaxIterations         int     `json:"max_iterations"`
	VerifyMode            int     `json:"verify_mode"`
	BlockPrecision        float64 `json:"block_precision"`
	MaxMeasurements       int     `json:"max_measurements"`
	MaxBuses              int     `json:"max_buses"`
	States                bool    `json:"states"`
	RequireTopologyChange bool    `json:"require_topology_change"`
}

// journalEncoding is the encoding token of a journal header: "certified"
// when the run certifies, "incremental" when it does not. Earlier builds
// wrote "cold" both for certified runs and for uncertified runs on the old
// non-incremental path, so a "cold" header says nothing about certification
// and matches neither token: such a journal is refused.
func journalEncoding(certify bool) string {
	if certify {
		return "certified"
	}
	return "incremental"
}

// JournalRecord is one line of the checkpoint journal after the header.
type JournalRecord struct {
	Kind string `json:"kind"`

	// Iteration fields: candidate vector and its verification verdict.
	Iter    int            `json:"iter,omitempty"`
	Vector  *attack.Vector `json:"vector,omitempty"`
	Cost    float64        `json:"cost,omitempty"`
	Reached bool           `json:"reached,omitempty"`

	// Final-verdict fields.
	Found        bool    `json:"found,omitempty"`
	Exhausted    bool    `json:"exhausted,omitempty"`
	AttackedCost float64 `json:"attacked_cost,omitempty"`

	journal.Link
}

// Journal is an open checkpoint journal positioned for appending. observer,
// when set, receives every record once it is durably appended.
type Journal struct {
	log      *journal.Log
	observer func(JournalRecord)
}

// CreateJournal starts a fresh journal at path (truncating any previous
// content) and writes the fsync'd header record.
func CreateJournal(path string, cfg JournalConfig) (*Journal, error) {
	l, err := journal.Create(path, journalVersion, cfg)
	if err != nil {
		return nil, err
	}
	return &Journal{log: l}, nil
}

// OpenJournal verifies a checkpoint journal (see journal.Open) and returns
// it with its configuration and the records after the header. Errors from
// an invalid journal match ErrJournal.
func OpenJournal(path string) (*Journal, *JournalConfig, []JournalRecord, error) {
	var cfg JournalConfig
	l, recs, err := journal.Open[JournalRecord](path, journalVersion, &cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Journal{log: l}, &cfg, recs, nil
}

// append durably appends one record, then notifies the observer.
func (j *Journal) append(rec *JournalRecord) error {
	if err := j.log.Append(rec); err != nil {
		return err
	}
	if j.observer != nil {
		j.observer(*rec)
	}
	return nil
}

// AppendIter records one completed find–verify iteration.
func (j *Journal) AppendIter(iter int, v *attack.Vector, cost float64, reached bool) error {
	return j.append(&JournalRecord{Kind: RecIter, Iter: iter, Vector: v, Cost: cost, Reached: reached})
}

// AppendFinal records the definitive verdict (Found or Exhausted). Budget
// and cancellation exits are deliberately not finalized, so a re-run with
// larger budgets resumes instead of replaying a truncated verdict.
func (j *Journal) AppendFinal(found, exhausted bool, v *attack.Vector, attackedCost float64) error {
	return j.append(&JournalRecord{Kind: RecFinal, Found: found, Exhausted: exhausted, Vector: v, AttackedCost: attackedCost})
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.log.Close() }

// vectorsEqual compares two vectors through their canonical wire form.
func vectorsEqual(a, b *attack.Vector) bool {
	if a == nil || b == nil {
		return a == b
	}
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
