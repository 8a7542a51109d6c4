package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestReportFig5b(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "5b", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5(b)") || !strings.Contains(s, "paper5") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestReportFig4a(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "4a", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Fig. 4(a)") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestReportFig5a(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "5a", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5(a)") || !strings.Contains(s, "sat") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestReportTable4(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "t4", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table IV") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestReportErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("want error without -fig or -all")
	}
	if err := run([]string{"-fig", "9z"}, &out); err == nil {
		t.Error("want error for unknown artifact")
	}
	// Performance is measured by the bench/ harness, not here: a retired
	// performance kind must fail and the message must name only the
	// paper's artifacts and cert.
	err := run([]string{"-fig", "serve"}, &out)
	if err == nil {
		t.Fatal("want error for the retired serve artifact")
	}
	want := `unknown artifact "serve" (want 4a, 4b, 4c, 5a, 5b, 5c, t4, cert)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if err := run([]string{"-fig", "4a", "-cases", "nope"}, &out); err == nil {
		t.Error("want error for unknown case")
	}
}
