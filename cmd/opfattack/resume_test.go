package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridattack"
	"gridattack/internal/cases"
	"gridattack/internal/core"
)

// TestMain lets this test binary act as the opfattack command itself: when
// OPFATTACK_CHILD=1 the binary runs the CLI with its arguments instead of the
// test suite, so the kill-and-resume test can SIGKILL a real analysis process
// mid-run.
func TestMain(m *testing.M) {
	if os.Getenv("OPFATTACK_CHILD") == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "opfattack:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeSynth57Input renders the 57-bus scale scenario into the CLI's text
// input format, so the child process and the reference run read the exact
// same problem.
func writeSynth57Input(t *testing.T) string {
	t.Helper()
	c, err := cases.ByName("synth57")
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewScenario(c, core.ScenarioConfig{Seed: 1, States: true})
	in := &gridattack.Input{
		Grid:               sc.Case.Grid,
		Plan:               sc.Plan,
		Capability:         sc.Capability,
		CostConstraint:     0,
		MinIncreasePercent: 1,
	}
	path := filepath.Join(t.TempDir(), "synth57.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := gridattack.WriteInput(f, in); err != nil {
		t.Fatal(err)
	}
	return path
}

// countJournalIters counts complete iteration lines in a (possibly torn)
// journal file without verifying it.
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

// TestKillAndResume SIGKILLs an analysis of the 57-bus system partway
// through, resumes it from the checkpoint journal, and requires the final
// result file to be byte-identical to an uninterrupted run's.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 57-bus kill-and-resume test")
	}
	inPath := writeSynth57Input(t)
	dir := t.TempDir()
	common := []string{"-input", inPath, "-states", "-max-iter", "3"}

	// Uninterrupted reference, in process.
	refOut := filepath.Join(dir, "ref.txt")
	var refStdout bytes.Buffer
	if err := run(append(common, "-output", refOut), &refStdout); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Checkpointed run in a child process, SIGKILLed once the journal shows
	// the first completed iteration.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(dir, "run.journal")
	killedOut := filepath.Join(dir, "killed.txt")
	cmd := exec.Command(exe, append(common, "-output", killedOut, "-checkpoint", cp)...)
	cmd.Env = append(os.Environ(), "OPFATTACK_CHILD=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	killed := false
	deadline := time.After(120 * time.Second)
poll:
	for {
		select {
		case <-done:
			// The child finished before the kill landed; the resume below
			// then exercises the finalized-journal fast path instead.
			break poll
		case <-deadline:
			cmd.Process.Kill()
			<-done
			t.Fatal("child produced no journaled iteration within the deadline")
		case <-time.After(20 * time.Millisecond):
			if countJournalIters(cp) >= 1 {
				if err := cmd.Process.Kill(); err == nil {
					killed = true
				}
				<-done
				break poll
			}
		}
	}
	if killed {
		if _, err := os.Stat(killedOut); err == nil {
			t.Fatal("killed child still wrote its output file; the kill landed too late to test resumption")
		}
	} else {
		t.Log("child completed before SIGKILL; resume exercises the finalized-journal fast path")
	}

	// Resume from the journal, in process, and require the identical result.
	resOut := filepath.Join(dir, "resumed.txt")
	var resStdout bytes.Buffer
	if err := run(append(common, "-output", resOut, "-checkpoint", cp), &resStdout); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !strings.Contains(resStdout.String(), "resumed ") {
		t.Errorf("resumed run did not report journal replay:\n%s", resStdout.String())
	}
	ref, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile(resOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, res) {
		t.Fatalf("resumed result differs from the uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", ref, res)
	}
}
