package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSubmitPollResult drives the basic lifecycle over a real listener:
// submit -> accepted -> poll -> done, with a sane verdict payload.
func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	body := jobBody(t, JobRequest{Input: caseInputText(t, "paper5", 1, 3)})

	sub, code := submit(t, ts.URL, "alice", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if len(sub.JobID) != 64 {
		t.Fatalf("job id %q is not a sha256 hex key", sub.JobID)
	}
	st := waitDone(t, ts.URL, sub.JobID)
	if st.State != JobDone {
		t.Fatalf("state %s (error %q)", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Rungs) != 1 {
		t.Fatalf("result missing or wrong shape: %+v", st.Result)
	}
	r := st.Result.Rungs[0]
	if r.TargetPercent != 3 || r.BaselineCost <= 0 || r.Threshold <= r.BaselineCost {
		t.Fatalf("rung sanity: %+v", r)
	}
	if !r.Definitive() {
		t.Fatalf("expected a definitive verdict on an unbudgeted run: %+v", r)
	}
	if r.Found && r.Vector == nil {
		t.Fatalf("found without a vector")
	}
}

// TestCacheHitBitIdentical is the acceptance check for the cache's trust
// boundary: a cached verdict must be byte-identical to a cold solve of the
// same problem — both a repeat on the same server and a from-scratch solve
// on a fresh server with an empty cache.
func TestCacheHitBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	body := jobBody(t, JobRequest{Input: caseInputText(t, "paper5", 1, 3)})

	first, _ := submit(t, ts.URL, "alice", body)
	cold := waitDone(t, ts.URL, first.JobID)
	if cold.Cached {
		t.Fatal("first solve reported cached")
	}

	again, code := submit(t, ts.URL, "bob", body)
	if code != http.StatusOK || !again.Cached || again.Result == nil {
		t.Fatalf("repeat submit: status %d cached=%v", code, again.Cached)
	}
	if !bytes.Equal(again.Result.VerdictBytes(), cold.Result.VerdictBytes()) {
		t.Fatalf("cached verdict differs from cold solve:\n%s\nvs\n%s",
			again.Result.VerdictBytes(), cold.Result.VerdictBytes())
	}

	// Fresh server, fresh cache, fresh journal dir: an independent cold
	// solve of the same bytes.
	_, ts2 := newTestServer(t, Config{JournalDir: t.TempDir()})
	sub2, _ := submit(t, ts2.URL, "carol", body)
	cold2 := waitDone(t, ts2.URL, sub2.JobID)
	if cold2.Cached {
		t.Fatal("fresh-server solve reported cached")
	}
	if !bytes.Equal(cold2.Result.VerdictBytes(), again.Result.VerdictBytes()) {
		t.Fatalf("cache-hit verdict not bit-identical to independent cold solve")
	}
	if sub2.JobID != first.JobID {
		t.Fatalf("same bytes produced different content addresses: %s vs %s", sub2.JobID, first.JobID)
	}
}

// TestLadderJob answers several thresholds as one ladder and
// cross-checks each rung against an independently solved single-target job,
// each on a fresh server so that none is replayed from another's record.
func TestLadderJob(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	input := caseInputText(t, "paper5", 1, 3)
	targets := []float64{1, 3, 6}

	sub, _ := submit(t, ts.URL, "alice", jobBody(t, JobRequest{Input: input, Targets: targets}))
	st := waitDone(t, ts.URL, sub.JobID)
	if st.State != JobDone {
		t.Fatalf("ladder failed: %q", st.Error)
	}
	if len(st.Result.Rungs) != len(targets) {
		t.Fatalf("got %d rungs, want %d", len(st.Result.Rungs), len(targets))
	}
	for i, want := range targets {
		r := st.Result.Rungs[i]
		if r.TargetPercent != want {
			t.Fatalf("rung %d target %v, want %v", i, r.TargetPercent, want)
		}
		_, fresh := newTestServer(t, Config{JournalDir: t.TempDir()})
		single, code := submit(t, fresh.URL, "bob", jobBody(t, JobRequest{Input: input, Targets: []float64{want}}))
		if code != http.StatusAccepted {
			t.Fatalf("single-target job at %v: status %d, want a solve", want, code)
		}
		sst := waitDone(t, fresh.URL, single.JobID)
		sr := sst.Result.Rungs[0]
		if sr.Found != r.Found || sr.Exhausted != r.Exhausted || sr.AttackedCost != r.AttackedCost {
			t.Fatalf("rung %v: ladder verdict %+v != single-target verdict %+v", want, r, sr)
		}
	}
}

// TestSSEEvents streams a job's progress: history replays for late
// subscribers and the stream terminates when the job does.
func TestSSEEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	body := jobBody(t, JobRequest{Input: caseInputText(t, "paper5", 1, 3)})
	sub, _ := submit(t, ts.URL, "alice", body)
	waitDone(t, ts.URL, sub.JobID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			types = append(types, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "queued") || !strings.Contains(joined, "started") {
		t.Fatalf("missing lifecycle events: %v", types)
	}
	if !strings.Contains(joined, "final") {
		t.Fatalf("missing journal final event: %v", types)
	}
	if types[len(types)-1] != "done" {
		t.Fatalf("stream did not end with done: %v", types)
	}
}

// TestConcurrentTenants hammers one server from many tenants with an
// overlapping workload; identical keys must coalesce to identical verdicts.
// The CI serve lane runs this under -race.
func TestConcurrentTenants(t *testing.T) {
	s, ts := newTestServer(t, Config{JournalDir: t.TempDir(), Workers: 4})
	input := caseInputText(t, "paper5", 1, 3)
	bodies := [][]byte{
		jobBody(t, JobRequest{Input: input, Targets: []float64{1}}),
		jobBody(t, JobRequest{Input: input, Targets: []float64{3}}),
		jobBody(t, JobRequest{Input: input, Targets: []float64{6}}),
		jobBody(t, JobRequest{Input: input, Targets: []float64{1, 3, 6}}),
	}

	const tenants, perTenant = 6, 8
	verdicts := make([]map[string]string, tenants)
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			verdicts[g] = map[string]string{}
			for i := 0; i < perTenant; i++ {
				body := bodies[(g+i)%len(bodies)]
				sub, code := submit(t, ts.URL, fmt.Sprintf("tenant-%d", g), body)
				if code != http.StatusOK && code != http.StatusAccepted {
					t.Errorf("tenant %d submit %d: status %d", g, i, code)
					return
				}
				st := waitDone(t, ts.URL, sub.JobID)
				if st.State != JobDone {
					t.Errorf("tenant %d job %s: state %s (%s)", g, sub.JobID, st.State, st.Error)
					return
				}
				verdicts[g][sub.JobID] = string(st.Result.VerdictBytes())
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	merged := map[string]string{}
	for _, m := range verdicts {
		for key, v := range m {
			if prev, ok := merged[key]; ok && prev != v {
				t.Fatalf("key %s served divergent verdicts across tenants", key)
			}
			merged[key] = v
		}
	}
	cs := s.Cache().Stats()
	if cs.Hits == 0 {
		t.Fatalf("overlapping workload produced no cache hits: %+v", cs)
	}
}

// TestRateLimit429 drives the token bucket with a logical clock.
func TestRateLimit429(t *testing.T) {
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	_, ts := newTestServer(t, Config{
		Now:         now,
		DefaultTier: Tier{Name: "free", Rate: 1, Burst: 1},
		Tiers:       map[string]Tier{"vip": {Name: "vip"}},
	})
	body := jobBody(t, JobRequest{Input: caseInputText(t, "paper5", 1, 3)})

	if _, code := submit(t, ts.URL, "alice", body); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("first submit: %d", code)
	}
	if _, code := submit(t, ts.URL, "alice", body); code != http.StatusTooManyRequests {
		t.Fatalf("second submit inside the window: %d, want 429", code)
	}
	// A different tenant has its own bucket; the vip tier is unlimited.
	for i := 0; i < 5; i++ {
		if _, code := submit(t, ts.URL, "vip", body); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("vip submit %d: %d", i, code)
		}
	}
	advance(1100 * time.Millisecond)
	if _, code := submit(t, ts.URL, "alice", body); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit after refill: %d", code)
	}
}

// TestTierBudgetCanceledNotCached maps a starved QoS tier onto the solver
// budgets and checks the trust boundary: the canceled, non-definitive result
// is returned to the caller but never enters the cache.
func TestTierBudgetCanceledNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DefaultTier: Tier{Name: "starved", QueryTimeout: time.Nanosecond},
	})
	body := jobBody(t, JobRequest{Input: caseInputText(t, "ieee14", 2, 3)})
	sub, _ := submit(t, ts.URL, "alice", body)
	st := waitDone(t, ts.URL, sub.JobID)
	if st.State != JobDone {
		t.Fatalf("budget-bound job should finish with a canceled verdict, got %s (%s)", st.State, st.Error)
	}
	r := st.Result.Rungs[0]
	if !r.Canceled || r.Definitive() || st.Result.Definitive {
		t.Fatalf("expected canceled non-definitive rung, got %+v", r)
	}
	if cs := s.Cache().Stats(); cs.Entries != 0 {
		t.Fatalf("non-definitive result entered the cache: %+v", cs)
	}
	// Resubmitting re-solves (no false cache hit).
	again, code := submit(t, ts.URL, "alice", body)
	if code != http.StatusAccepted || again.Cached {
		t.Fatalf("resubmit of uncached key: status %d cached=%v", code, again.Cached)
	}
	waitDone(t, ts.URL, again.JobID)
}

// TestTransportErrors covers the 4xx surface.
func TestTransportErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: Limits{MaxRequestBytes: 2048}})

	if _, code := submit(t, ts.URL, "a", []byte("{not json")); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", code)
	}
	if _, code := submit(t, ts.URL, "a", []byte(`{"input":""}`)); code != http.StatusBadRequest {
		t.Fatalf("empty input: %d", code)
	}
	big := jobBody(t, JobRequest{Input: strings.Repeat("#", 4096)})
	if _, code := submit(t, ts.URL, "a", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", code)
	}
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestStatsEndpoint checks the counters a fleet operator watches.
func TestStatsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := jobBody(t, JobRequest{Input: caseInputText(t, "paper5", 1, 3)})
	sub, _ := submit(t, ts.URL, "alice", body)
	waitDone(t, ts.URL, sub.JobID)
	submit(t, ts.URL, "alice", body) // cache hit

	snap := s.Stats()
	if snap.Cache.Hits == 0 || snap.Cache.Entries != 1 {
		t.Fatalf("cache stats: %+v", snap.Cache)
	}
	ten, ok := snap.Tenants["alice"]
	if !ok || ten.Admitted < 2 {
		t.Fatalf("tenant stats: %+v", snap.Tenants)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats endpoint: %d", resp.StatusCode)
	}
}
