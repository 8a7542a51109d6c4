package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/serve"
	"gridattack/internal/textio"
)

// caseInputText renders a registry case's seeded scenario into the paper's
// text input format, so the daemon under test and the in-process reference
// solve the exact same problem bytes.
func caseInputText(t *testing.T, name string, seed int64, minIncrease float64) string {
	t.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewScenario(c, core.ScenarioConfig{Seed: seed})
	var buf bytes.Buffer
	in := &textio.Input{
		Grid: sc.Case.Grid, Plan: sc.Plan, Capability: sc.Capability,
		MinIncreasePercent: minIncrease,
	}
	if err := textio.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMain lets this test binary act as the gridattackd command itself: with
// GRIDATTACKD_CHILD=1 it runs the daemon with its arguments instead of the
// test suite, so the kill-and-restart test can SIGKILL a real daemon process
// mid-solve.
func TestMain(m *testing.M) {
	if os.Getenv("GRIDATTACKD_CHILD") == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gridattackd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one child gridattackd process under test control.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	done     chan error
	waitOnce sync.Once
	waitErr  error
}

// wait reaps the child exactly once; safe to call from kill and cleanup.
func (d *daemon) wait() error {
	d.waitOnce.Do(func() { d.waitErr = <-d.done })
	return d.waitErr
}

// startDaemon launches a child daemon on a free port and parses the bound
// address from its stdout listening line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GRIDATTACKD_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	lineCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 256)
		var line []byte
		for {
			n, err := stdout.Read(buf)
			line = append(line, buf[:n]...)
			if i := bytes.IndexByte(line, '\n'); i >= 0 {
				lineCh <- string(line[:i])
				break
			}
			if err != nil {
				lineCh <- ""
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	go func() { d.done <- cmd.Wait() }()
	select {
	case line := <-lineCh:
		const prefix = "listening on "
		if !strings.HasPrefix(line, prefix) {
			cmd.Process.Kill()
			t.Fatalf("daemon did not announce its address: %q", line)
		}
		d.base = strings.TrimPrefix(line, prefix)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never started listening")
	case err := <-d.done:
		t.Fatalf("daemon exited before listening: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		d.wait()
	})
	return d
}

func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.wait()
}

func postJob(t *testing.T, base string, body []byte) (id string, status int, resp serve.JobStatus) {
	t.Helper()
	r, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var sub struct {
		JobID  string        `json:"job_id"`
		Cached bool          `json:"cached"`
		Result *serve.Result `json:"result"`
	}
	if r.StatusCode == http.StatusOK || r.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	resp.Cached = sub.Cached
	resp.Result = sub.Result
	return sub.JobID, r.StatusCode, resp
}

func pollDone(t *testing.T, base, id string, within time.Duration) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err == nil {
			var st serve.JobStatus
			derr := json.NewDecoder(r.Body).Decode(&st)
			r.Body.Close()
			if derr == nil && (st.State == serve.JobDone || st.State == serve.JobFailed) {
				return st
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, within)
	return serve.JobStatus{}
}

// countJournalIters counts complete iteration lines in a (possibly torn)
// journal without verifying it.
func countJournalIters(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.Contains(line, []byte(`"kind":"iter"`)) && bytes.HasSuffix(line, []byte("}")) {
			n++
		}
	}
	return n
}

// TestDaemonKillAndRestart SIGKILLs a daemon mid-solve, restarts it on the
// same journal dir, and requires (a) the resumed verdict to be bit-identical
// to an uninterrupted in-process solve, and (b) a third restart to serve the
// finalized job straight from its durable result — no duplicate solving.
func TestDaemonKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 118-bus daemon kill-and-restart test")
	}
	input := caseInputText(t, "synth118", 1, 3)
	body, err := json.Marshal(serve.JobRequest{Input: input, Targets: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := serve.ParseJobRequest(body, serve.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference, in process.
	ref := solveInProcess(t, parsed, body)

	dir := t.TempDir()
	journalPath := filepath.Join(dir, parsed.Key+".journal")

	// Daemon one: submit, wait for two durable iterations, SIGKILL.
	d1 := startDaemon(t, "-journal-dir", dir, "-workers", "2")
	id, status, _ := postJob(t, d1.base, body)
	if status != http.StatusAccepted || id != parsed.Key {
		t.Fatalf("submit: status %d id %s (want %s)", status, id, parsed.Key)
	}
	killed, stopped := false, false
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if countJournalIters(journalPath) >= 2 {
			d1.kill(t)
			killed, stopped = true, true
			break
		}
		if _, err := os.Stat(filepath.Join(dir, parsed.Key+".result.json")); err == nil {
			// Solved before the kill landed; the restart below then
			// exercises the reload path instead of mid-run resume.
			d1.kill(t)
			stopped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !stopped {
		d1.kill(t)
		t.Fatal("no journaled iteration within the deadline")
	}

	// Daemon two: recovery must resume (or reload) and finish the job
	// without being asked.
	d2 := startDaemon(t, "-journal-dir", dir, "-workers", "2")
	st := pollDone(t, d2.base, parsed.Key, 3*time.Minute)
	if st.State != serve.JobDone {
		t.Fatalf("recovered job failed: %s", st.Error)
	}
	if !bytes.Equal(st.Result.VerdictBytes(), ref.VerdictBytes()) {
		t.Fatal("verdict after kill-and-restart differs from the uninterrupted run")
	}
	if killed {
		rung := st.Result.Rungs[0]
		if rung.ResumedIterations < 2 {
			t.Fatalf("restart resumed %d iterations, want >= the 2 journaled before the kill", rung.ResumedIterations)
		}
		if rung.ResumedIterations >= rung.Iterations {
			t.Fatalf("kill landed after the final iteration (resumed %d of %d); no live-resume exercised",
				rung.ResumedIterations, rung.Iterations)
		}
	}
	d2.kill(t)

	// Daemon three: the job is finalized and durable. Recovery must reload
	// the result — resubmitting is answered from cache instantly and the
	// journal must not grow by a single record.
	journalBefore, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	d3 := startDaemon(t, "-journal-dir", dir, "-workers", "2")
	start := time.Now()
	id3, status3, resp3 := postJob(t, d3.base, body)
	if status3 != http.StatusOK || !resp3.Cached || id3 != parsed.Key {
		t.Fatalf("finalized job resubmit: status %d cached=%v — it was solved again", status3, resp3.Cached)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cache answer took %v", elapsed)
	}
	if !bytes.Equal(resp3.Result.VerdictBytes(), ref.VerdictBytes()) {
		t.Fatal("reloaded verdict differs from the reference")
	}
	journalAfter, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journalBefore, journalAfter) {
		t.Fatal("finalized job's journal grew on restart: something re-solved it")
	}
}

// solveInProcess runs the job on an in-process serve.Server (no transport)
// and returns its result.
func solveInProcess(t *testing.T, parsed *serve.ParsedJob, raw []byte) *serve.Result {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Submit(parsed, "ref", raw)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(3 * time.Minute):
		t.Fatal("in-process reference run timed out")
	}
	res, ok := job.Result()
	if !ok {
		t.Fatalf("reference run failed: %+v", job.Status())
	}
	return res
}

// TestTiersFile covers the QoS tiers file loader.
func TestTiersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiers.json")
	content := `{
		"default": {"name": "standard", "rate": 10, "burst": 20},
		"tenants": {
			"acme":  {"name": "pro", "parallelism": 4},
			"guest": {"name": "free", "rate": 1, "burst": 3,
			          "query_timeout": "30s", "max_conflicts": 500000}
		}
	}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	def, tiers, err := loadTiers(path)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "standard" || def.Rate != 10 || def.Burst != 20 {
		t.Fatalf("default tier: %+v", def)
	}
	if got := tiers["guest"]; got.QueryTimeout != 30*time.Second || got.MaxConflicts != 500000 {
		t.Fatalf("guest tier: %+v", got)
	}
	// "parallelism" is ignored, but a tier that names it still loads.
	if got, ok := tiers["acme"]; !ok || got.Name != "pro" {
		t.Fatalf("acme tier: %+v (present %t)", got, ok)
	}

	for name, bad := range map[string]string{
		"bad duration":  `{"default": {"query_timeout": "fast"}}`,
		"unknown field": `{"default": {"nope": 1}}`,
		"not json":      `{`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadTiers(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, _, err := loadTiers(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing tiers file accepted")
	}
}

// TestRunFlagErrors covers run's argument validation without starting a
// listener.
func TestRunFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-tiers", filepath.Join(t.TempDir(), "none.json")}, &out); err == nil {
		t.Error("missing tiers file accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999"}, &out); err == nil {
		t.Error("unbindable address accepted")
	}
}
