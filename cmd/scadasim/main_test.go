package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHonestSimulation(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "mapped topology: 7 lines (true: 7)") {
		t.Errorf("honest run should map all lines:\n%s", s)
	}
	if !strings.Contains(s, "bad data: false") {
		t.Errorf("honest run should pass BDD:\n%s", s)
	}
}

func TestAttackedSimulation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-attack"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "mapped topology: 6 lines (true: 7)") {
		t.Errorf("attack should unmap one line:\n%s", s)
	}
	if !strings.Contains(s, "bad data: false") {
		t.Errorf("attack must remain stealthy:\n%s", s)
	}
	if !strings.Contains(s, "compromised") {
		t.Errorf("output should list compromised substations:\n%s", s)
	}
}

func TestFaultySimulationSurvives(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-faults", "drop=0.3,corrupt=0.2", "-seed", "7", "-cycles", "4", "-retries", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run with faults: %v", err)
	}
	s := out.String()
	for _, want := range []string{"cycle 1:", "cycle 4:", "injected faults over", "degraded cycles:", "bad data: false"} {
		if !strings.Contains(s, want) {
			t.Errorf("faulty run output missing %q:\n%s", want, s)
		}
	}
	// Deterministic chaos: the same seed must replay the same fault trace.
	var out2 bytes.Buffer
	if err := run(args, &out2); err != nil {
		t.Fatalf("rerun with faults: %v", err)
	}
	if out.String() != out2.String() {
		t.Errorf("same seed produced different runs:\n--- first\n%s--- second\n%s", out.String(), out2.String())
	}
}

func TestBadFaultSpecRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "flood=0.5"}, &out); err == nil {
		t.Fatal("want error for unknown fault kind")
	}
}

func TestSoakSimulation(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-soak", "20", "-matrix", "bus2:drop@3..5;bus3:reset@8..10"}
	if err := run(args, &out); err != nil {
		t.Fatalf("soak run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"soak: 20 cycles over 5 RTUs (paper5)",
		"bus 2: state=healthy trips=1 recoveries=1",
		"bus 3: state=healthy trips=1 recoveries=1",
		"final mode: normal",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("soak output missing %q:\n%s", want, s)
		}
	}
}

func TestSoakJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "soak.journal")
	var first bytes.Buffer
	if err := run([]string{"-soak", "10", "-journal", journal}, &first); err != nil {
		t.Fatalf("first soak run: %v", err)
	}
	if strings.Contains(first.String(), "resumed from journal") {
		t.Errorf("fresh run claims to have resumed:\n%s", first.String())
	}
	var second bytes.Buffer
	if err := run([]string{"-soak", "5", "-journal", journal}, &second); err != nil {
		t.Fatalf("resumed soak run: %v", err)
	}
	if !strings.Contains(second.String(), "resumed from journal after cycle 10") {
		t.Errorf("second run should resume from the journal:\n%s", second.String())
	}
}

// TestSoakJournalNoHeaderStartsFresh: an empty journal file, or one torn
// inside its header, holds nothing to resume — the soak starts fresh, and
// the journal it writes resumes on the next run.
func TestSoakJournalNoHeaderStartsFresh(t *testing.T) {
	for name, content := range map[string]string{
		"empty":       "",
		"torn header": `{"kind":"header","vers`,
	} {
		journal := filepath.Join(t.TempDir(), "soak.journal")
		if err := os.WriteFile(journal, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		if err := run([]string{"-soak", "3", "-case", "paper5", "-journal", journal}, &first); err != nil {
			t.Fatalf("%s: soak over a headerless journal: %v", name, err)
		}
		if strings.Contains(first.String(), "resumed from journal") {
			t.Errorf("%s: fresh run claims to have resumed:\n%s", name, first.String())
		}
		if err := run([]string{"-soak", "3", "-case", "paper5", "-journal", journal}, &second); err != nil {
			t.Fatalf("%s: second soak: %v", name, err)
		}
		if !strings.Contains(second.String(), "resumed from journal after cycle 3") {
			t.Errorf("%s: second run should resume from the journal:\n%s", name, second.String())
		}
	}
}

func TestSoakRejectsClassicFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-soak", "5", "-attack"}, &out); err == nil {
		t.Fatal("want error combining -soak with -attack")
	}
	if err := run([]string{"-soak", "5", "-faults", "drop=0.5"}, &out); err == nil {
		t.Fatal("want error combining -soak with -faults")
	}
}

func TestAttackedWithStates(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-attack", "-states"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "bad data: false") {
		t.Errorf("with-states attack must remain stealthy:\n%s", out.String())
	}
}
