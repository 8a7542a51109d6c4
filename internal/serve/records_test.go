package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countSolves counts the jobs the workers start for the rest of the test.
func countSolves(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	setTestJobHook(func(*Job) { n.Add(1) })
	t.Cleanup(func() { setTestJobHook(nil) })
	return &n
}

// solveAt submits body and waits for its job to finish.
func solveAt(t *testing.T, base string, body []byte) JobStatus {
	t.Helper()
	sub, code := submit(t, base, "alice", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want a queued job", code)
	}
	st := waitDone(t, base, sub.JobID)
	if st.State != JobDone {
		t.Fatalf("job %s: %s (%s)", sub.JobID, st.State, st.Error)
	}
	return st
}

// TestReplayAnswersNewTarget: after a solve at one target, a submission at
// another target on the same problem is answered at submit time from the
// solve's candidate record. No job runs and no request record or journal is
// written; the result file holds the verdict a fresh server's cold solve
// computes, and the event log says replayed.
func TestReplayAnswersNewTarget(t *testing.T) {
	cases := []struct {
		name string
		a, b JobRequest
	}{
		// Exhausted after two candidates at every target.
		{"exhausted", JobRequest{Input: caseInputText(t, "ieee14", 1, 3), Targets: []float64{3}},
			JobRequest{Input: caseInputText(t, "ieee14", 1, 3), Targets: []float64{1}}},
		// The first candidate raises the cost by about 0.39%.
		{"found", JobRequest{Input: caseInputText(t, "ieee14", 6, 3), Targets: []float64{0.1}, States: true},
			JobRequest{Input: caseInputText(t, "ieee14", 6, 3), Targets: []float64{0.2, 0.3}, States: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newTestServer(t, Config{JournalDir: dir})
			solves := countSolves(t)
			solveAt(t, ts.URL, jobBody(t, tc.a))

			sub, code := submit(t, ts.URL, "bob", jobBody(t, tc.b))
			if code != http.StatusOK || !sub.Replayed || sub.Cached || sub.Result == nil {
				t.Fatalf("submit at a new target: status %d replayed=%t cached=%t", code, sub.Replayed, sub.Cached)
			}
			if n := solves.Load(); n != 1 {
				t.Fatalf("%d jobs ran, want only the first solve", n)
			}
			for _, suffix := range []string{".req.json", ".journal"} {
				if _, err := os.Stat(filepath.Join(dir, sub.JobID+suffix)); !os.IsNotExist(err) {
					t.Errorf("replay wrote %s (stat: %v)", suffix, err)
				}
			}
			data, err := os.ReadFile(filepath.Join(dir, sub.JobID+".result.json"))
			if err != nil {
				t.Fatalf("replay wrote no result file: %v", err)
			}
			var stored Result
			if err := json.Unmarshal(data, &stored); err != nil || stored.Key != sub.JobID || !stored.Definitive {
				t.Fatalf("result file %s: %v", data, err)
			}
			_, cold, _ := referenceRun(t, tc.b)
			for what, got := range map[string]*Result{"response": sub.Result, "result file": &stored} {
				if !bytes.Equal(got.VerdictBytes(), cold.Result.VerdictBytes()) {
					t.Fatalf("replayed verdict in the %s differs from a cold solve:\n%s\nvs\n%s", what, got.VerdictBytes(), cold.Result.VerdictBytes())
				}
			}
			job, _ := s.lookupJob(sub.JobID)
			evs, _, _ := job.Events().next(0)
			if len(evs) == 0 || evs[0].Type != "replayed" || !strings.Contains(string(evs[0].Data), `"candidates":`) {
				t.Errorf("replayed job's events %+v, want a replayed event with its candidates", evs)
			}
			st := s.Stats()
			if st.Records.Replays != 1 || st.Records.Entries != 1 || st.Records.Bytes <= 0 {
				t.Errorf("record stats %+v, want one replay from one record", st.Records)
			}
			if st.Cache.Entries != 2 {
				t.Errorf("cache holds %d results, want the solve's and the replay's", st.Cache.Entries)
			}
		})
	}
}

// TestReplayNotCovered: a record resolved at a found candidate does not
// decide a target above every candidate it walked; that submission is
// queued and solved.
func TestReplayNotCovered(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := caseInputText(t, "ieee14", 6, 3)
	first := solveAt(t, ts.URL, jobBody(t, JobRequest{Input: input, Targets: []float64{0.1}, States: true}))
	if !first.Result.Rungs[0].Found {
		t.Fatalf("ieee14/s6 with states at 0.1%%: %+v, want an attack", first.Result.Rungs[0])
	}
	higher := solveAt(t, ts.URL, jobBody(t, JobRequest{Input: input, Targets: []float64{5}, States: true}))
	if higher.Replayed {
		t.Fatal("a target above the record's candidates was replayed")
	}
}

// TestReplayKeepsCertificationApart: a certified request never replays an
// uncertified record, nor the reverse.
func TestReplayKeepsCertificationApart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := caseInputText(t, "ieee14", 1, 3)
	solveAt(t, ts.URL, jobBody(t, JobRequest{Input: input, Targets: []float64{3}}))
	// The first certified request is solved, not replayed...
	solveAt(t, ts.URL, jobBody(t, JobRequest{Input: input, Targets: []float64{2}, Certify: true}))
	// ...and later ones on either side replay their own side's record.
	for _, certify := range []bool{false, true} {
		sub, code := submit(t, ts.URL, "alice", jobBody(t, JobRequest{Input: input, Targets: []float64{1}, Certify: certify}))
		if code != http.StatusOK || !sub.Replayed {
			t.Fatalf("certify=%t at 1%%: status %d replayed=%t, want a replay", certify, code, sub.Replayed)
		}
	}
	a, _ := ParseJobRequest(jobBody(t, JobRequest{Input: input, Targets: []float64{1}}), Limits{})
	b, _ := ParseJobRequest(jobBody(t, JobRequest{Input: input, Targets: []float64{1}, Certify: true}), Limits{})
	if a.RecordKey == b.RecordKey {
		t.Fatal("certified and uncertified requests share a record key")
	}
}

// TestRecordTableEvictsLRU: under its byte budget the table drops the least
// recently used record; a problem whose record went is solved again.
func TestRecordTableEvictsLRU(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := func(seed int64, target float64) []byte {
		return jobBody(t, JobRequest{Input: caseInputText(t, "ieee14", seed, 3), Targets: []float64{target}})
	}
	solveAt(t, ts.URL, body(1, 3))
	solveAt(t, ts.URL, body(6, 3))
	s.records.lru.budget = s.records.stats().Bytes // room for these two

	// Replaying seed 1 makes seed 6's record the least recently used.
	if sub, code := submit(t, ts.URL, "alice", body(1, 1)); code != http.StatusOK || !sub.Replayed {
		t.Fatalf("seed 1 at 1%%: status %d replayed=%t", code, sub.Replayed)
	}
	solveAt(t, ts.URL, body(2, 3))
	if st := s.records.stats(); st.Bytes > s.records.lru.budget {
		t.Fatalf("table holds %d bytes over its budget of %d", st.Bytes, s.records.lru.budget)
	}
	if sub, code := submit(t, ts.URL, "alice", body(1, 2)); code != http.StatusOK || !sub.Replayed {
		t.Errorf("seed 1's record was evicted: status %d replayed=%t", code, sub.Replayed)
	}
	if sub, code := submit(t, ts.URL, "alice", body(6, 1)); code != http.StatusAccepted || sub.Replayed {
		t.Errorf("seed 6's record survived: status %d replayed=%t", code, sub.Replayed)
	}
}

// TestReplayedResultSurvivesRestart: a replayed result is persisted like a
// solved one and reloads through Recover into the next process's cache.
func TestReplayedResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	input := caseInputText(t, "ieee14", 1, 3)
	s1, ts1 := newTestServer(t, Config{JournalDir: dir})
	solveAt(t, ts1.URL, jobBody(t, JobRequest{Input: input, Targets: []float64{3}}))
	replayed, code := submit(t, ts1.URL, "alice", jobBody(t, JobRequest{Input: input, Targets: []float64{1}}))
	if code != http.StatusOK || !replayed.Replayed {
		t.Fatalf("replay: status %d replayed=%t", code, replayed.Replayed)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{JournalDir: dir})
	if reloaded, resumed, err := s2.Recover(); err != nil || reloaded != 2 || resumed != 0 {
		t.Fatalf("Recover = (%d, %d, %v), want (2, 0, nil)", reloaded, resumed, err)
	}
	again, code := submit(t, ts2.URL, "alice", jobBody(t, JobRequest{Input: input, Targets: []float64{1}}))
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("after restart: status %d cached=%t", code, again.Cached)
	}
	if !bytes.Equal(again.Result.VerdictBytes(), replayed.Result.VerdictBytes()) {
		t.Fatal("reloaded replay differs from the replayed answer")
	}
}

// TestRecordTableConcurrent: submissions replay a record from several
// goroutines while the workers store the records of other solves in the
// same table. It is meant for -race.
func TestRecordTableConcurrent(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	type request struct {
		p    *ParsedJob
		body []byte
	}
	parse := func(req JobRequest) request {
		body := jobBody(t, req)
		p, err := ParseJobRequest(body, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return request{p, body}
	}
	searched := caseInputText(t, "ieee14", 1, 3) // exhausted at every target
	first := parse(JobRequest{Input: searched, Targets: []float64{3}})
	job, err := s.Submit(first.p, "alice", first.body)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()

	const goroutines, each = 4, 25
	replays := make([][]request, goroutines)
	for g := range replays {
		for i := 0; i < each; i++ {
			target := 0.5 + float64(g*each+i)*1e-3
			replays[g] = append(replays[g], parse(JobRequest{Input: searched, Targets: []float64{target}}))
		}
	}
	var solves []*Job
	for seed := int64(2); seed <= 4; seed++ {
		r := parse(JobRequest{Input: caseInputText(t, "ieee14", seed, 3), Targets: []float64{3}})
		job, err := s.Submit(r.p, "bob", r.body)
		if err != nil {
			t.Fatal(err)
		}
		solves = append(solves, job)
	}
	var wg sync.WaitGroup
	for _, rs := range replays {
		wg.Add(1)
		go func(rs []request) {
			defer wg.Done()
			for _, r := range rs {
				job, err := s.Submit(r.p, "carol", r.body)
				if err != nil {
					t.Errorf("target %v: %v", r.p.Targets, err)
					return
				}
				if st := job.Status(); !st.Replayed {
					t.Errorf("target %v: status %+v, want a replay", r.p.Targets, st)
					return
				}
			}
		}(rs)
	}
	wg.Wait()
	for _, job := range solves {
		<-job.Done()
		if st := job.Status(); st.State != JobDone {
			t.Errorf("solve %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	if st := s.Stats().Records; st.Replays != goroutines*each {
		t.Errorf("record stats %+v, want %d replays", st, goroutines*each)
	}
}
