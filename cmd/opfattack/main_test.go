package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridattack"
)

func writeCaseStudy1Input(t *testing.T) string {
	t.Helper()
	in := &gridattack.Input{
		Grid:               gridattack.Paper5Bus(),
		Plan:               gridattack.Paper5PlanCase1(),
		Capability:         gridattack.Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true},
		CostConstraint:     1580,
		MinIncreasePercent: 3,
	}
	path := filepath.Join(t.TempDir(), "cs1.txt")
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

func TestRunCaseStudy1(t *testing.T) {
	path := writeCaseStudy1Input(t)
	var out bytes.Buffer
	err := run([]string{"-input", path, "-operating", "0.47,0.11,0.25,0,0"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"result: sat", "excluded lines: [6]", "altered measurements: [6 13 17 18]"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunOutputFile(t *testing.T) {
	path := writeCaseStudy1Input(t)
	outPath := filepath.Join(t.TempDir(), "result.txt")
	var stdout bytes.Buffer
	err := run([]string{"-input", path, "-operating", "0.47,0.11,0.25,0,0", "-output", outPath}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "result: sat") {
		t.Errorf("output file missing verdict:\n%s", data)
	}
}

func TestRunVerifyModes(t *testing.T) {
	path := writeCaseStudy1Input(t)
	for _, mode := range []string{"lp", "smt", "shift"} {
		var out bytes.Buffer
		if err := run([]string{"-input", path, "-operating", "0.47,0.11,0.25,0,0", "-verify", mode}, &out); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-input", path, "-verify", "bogus"}, &out); err == nil {
		t.Error("want error for bad verify mode")
	}
}

func TestRunVerboseReportsExactFallbacks(t *testing.T) {
	path := writeCaseStudy1Input(t)
	var out bytes.Buffer
	if err := run([]string{"-input", path, "-operating", "0.47,0.11,0.25,0,0", "-verify", "smt", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact OPF fallbacks: 0 ") {
		t.Errorf("-v output lacks the fallback count:\n%s", out.String())
	}
}

func TestParseBudget(t *testing.T) {
	conflicts, pivots, timeout, err := parseBudget("conflicts=100, pivots=5, time=30s")
	if err != nil {
		t.Fatal(err)
	}
	if conflicts != 100 || pivots != 5 || timeout != 30*time.Second {
		t.Fatalf("parseBudget = %d, %d, %v", conflicts, pivots, timeout)
	}
	for _, bad := range []string{"conflicts", "conflicts=x", "conflicts=-1", "frobs=1", "time=abc", "time=-1s"} {
		if _, _, _, err := parseBudget(bad); err == nil {
			t.Errorf("parseBudget(%q) accepted", bad)
		}
	}
}

func TestRunCertified(t *testing.T) {
	path := writeCaseStudy1Input(t)
	var out bytes.Buffer
	err := run([]string{"-input", path, "-operating", "0.47,0.11,0.25,0,0", "-verify", "smt", "-certify"}, &out)
	if err != nil {
		t.Fatalf("run -certify: %v", err)
	}
	if !strings.Contains(out.String(), "result: sat") {
		t.Errorf("certified run lost the verdict:\n%s", out.String())
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	path := writeCaseStudy1Input(t)
	var out bytes.Buffer
	err := run([]string{"-input", path, "-operating", "0.47,0.11,0.25,0,0", "-budget", "time=1ns"}, &out)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("run with 1ns budget: err=%v, want budget-exhausted error", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("want error for missing -input")
	}
	if err := run([]string{"-input", "/nonexistent/file"}, &out); err == nil {
		t.Error("want error for missing file")
	}
	path := writeCaseStudy1Input(t)
	if err := run([]string{"-input", path, "-operating", "1,2"}, &out); err == nil {
		t.Error("want error for short dispatch")
	}
	if err := run([]string{"-input", path, "-operating", "a,b,c,d,e"}, &out); err == nil {
		t.Error("want error for non-numeric dispatch")
	}
}
