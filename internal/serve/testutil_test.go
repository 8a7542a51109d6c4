package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/textio"
)

// mustCaseInputText renders a registry case's seeded scenario into the
// paper's text input format. Panics on registry errors (test-only helper;
// also feeds fuzz seeds).
func mustCaseInputText(name string, seed int64, minIncrease float64) string {
	c, err := cases.ByName(name)
	if err != nil {
		panic(err)
	}
	sc := core.NewScenario(c, core.ScenarioConfig{Seed: seed})
	var buf bytes.Buffer
	in := &textio.Input{
		Grid: sc.Case.Grid, Plan: sc.Plan, Capability: sc.Capability,
		MinIncreasePercent: minIncrease,
	}
	if err := textio.Write(&buf, in); err != nil {
		panic(err)
	}
	return buf.String()
}

// caseInputText is mustCaseInputText bound to a test.
func caseInputText(t *testing.T, name string, seed int64, minIncrease float64) string {
	t.Helper()
	return mustCaseInputText(name, seed, minIncrease)
}

// jobBody marshals a request.
func jobBody(t *testing.T, req JobRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestServer builds a server + httptest transport. The returned cleanup
// runs automatically.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a job body and decodes the envelope.
func submit(t *testing.T, base string, tenant string, body []byte) (submitResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return sub, resp.StatusCode
}

// waitDone polls the result endpoint until the job reaches a terminal state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, terminal := pollResult(base, id)
		if terminal {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

// pollResult fetches a job's result endpoint; ok reports a terminal state.
func pollResult(base, id string) (JobStatus, bool) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return JobStatus{}, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		return JobStatus{}, false
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, false
	}
	return st, st.State == JobDone || st.State == JobFailed
}
