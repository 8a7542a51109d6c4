package serve

import (
	"sync"

	"gridattack/internal/core"
)

// recordBudget bounds the bytes of candidate records the record table holds
// (core.Record.Bytes); the least recently used records go first. A record
// holds up to Limits.MaxIterations vectors of up to Limits.MaxBuses buses:
// at the defaults, 1,000 vectors of a 2,000-bus, 3,000-line grid take
// about 120 MB, more than the whole budget, and such a record is not kept.
// The records of gridbench's serve-mix problems take a few KB each.
const recordBudget = 64 << 20

// recordTable keeps the candidate records of the searches the workers ran,
// keyed by ParsedJob.RecordKey, so that a later submission with other
// targets on the same problem and configuration is answered by replaying
// its record (core.Record.Replay) instead of a search. Records live in
// memory only.
type recordTable struct {
	mu      sync.Mutex
	lru     *lru[*core.Record] // weighed in core.Record.Bytes
	replays uint64
}

func newRecordTable(budget int) *recordTable {
	return &recordTable{lru: newLRU[*core.Record](budget)}
}

// get returns the record held for key, or nil.
func (t *recordTable) get(key string) *core.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, _ := t.lru.get(key)
	return rec
}

// put keeps rec under key when it covers more than the record held there,
// then evicts least recently used records until the table fits its budget.
// A record larger than the whole budget is not kept.
func (t *recordTable) put(key string, rec *core.Record) {
	if rec == nil || rec.Extent() == 0 {
		return
	}
	n := rec.Bytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.lru.budget {
		return
	}
	if held, ok := t.lru.get(key); ok && rec.Extent() <= held.Extent() {
		return // the held record already covers every target rec does
	}
	t.lru.put(key, rec, n)
}

// RecordStats is a point-in-time snapshot of the record table.
type RecordStats struct {
	Entries int    `json:"entries"`
	Bytes   int    `json:"bytes"`
	Replays uint64 `json:"replays"` // submissions answered by a replay
}

func (t *recordTable) stats() RecordStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return RecordStats{Entries: t.lru.order.Len(), Bytes: t.lru.weight, Replays: t.replays}
}

// replay answers p from the record held for its record key, when that
// record covers every target with a definitive verdict, and counts the
// replay. walked is the number of candidates the longest rung's replay
// walked.
func (t *recordTable) replay(p *ParsedJob) (res *Result, walked int, ok bool) {
	rec := t.get(p.RecordKey)
	if rec == nil {
		return nil, 0, false
	}
	reps := make([]*core.Report, len(p.Targets))
	for i, target := range p.Targets {
		rep, covered := rec.Replay(target, p.Req.MaxIterations)
		if !covered {
			return nil, 0, false
		}
		reps[i] = rep
		walked = max(walked, rep.Iterations)
	}
	res = resultFromReports(p.Key, p.Targets, reps)
	if !res.Definitive {
		return nil, 0, false
	}
	t.mu.Lock()
	t.replays++
	t.mu.Unlock()
	return res, walked, true
}
