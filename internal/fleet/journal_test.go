package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridattack/internal/journal"
)

func testJournalConfig() JournalConfig {
	return JournalConfig{Case: "paper5", Buses: 5, Lines: 7, Retries: 2,
		QuarantineAfter: 3, ReadmitAfter: 2, DeescalateAfter: 3, FreezeAfterBad: 3}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.journal")
	j, err := CreateJournal(path, testJournalConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec1 := &JournalRecord{
		Cycle: 1, Outcome: OutcomeClean, Mode: ModeNormal,
		Disp: &DispState{Dispatch: []float64{0.5, 0.25}, Setpoint: []float64{0.5, 0.25}},
		Tele: &TeleState{Values: []float64{0, 1.5}, Present: []bool{false, true}, Statuses: map[int]bool{1: true, 2: false}},
	}
	if err := j.AppendCycle(rec1); err != nil {
		t.Fatal(err)
	}
	rec2 := &JournalRecord{Cycle: 2, Outcome: OutcomeDegraded, Mode: ModePartial, Failed: 1,
		Fleet: &FleetState{Health: []RTUStat{{Bus: 3, State: Degraded, ConsecFails: 1}},
			Breakers: []BreakerRec{{Bus: 3, Failures: 1}}}}
	if err := j.AppendCycle(rec2); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendMonitor(2, "fp1", []MonitorVerdict{{TargetPercent: 5, Found: true, BaselineCost: 10, AttackedCost: 11}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, cfg, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j2.Close()
	if cfg.Case != "paper5" || cfg.Buses != 5 {
		t.Fatalf("config = %+v", cfg)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	st := FoldRecords(recs)
	if st.LastCycle != 2 || st.Mode != ModePartial {
		t.Fatalf("folded state: %+v", st)
	}
	if st.Disp == nil || st.Disp.Dispatch[0] != 0.5 {
		t.Fatalf("disp not carried forward: %+v", st.Disp)
	}
	if st.Tele == nil || !st.Tele.Statuses[1] || st.Tele.Statuses[2] {
		t.Fatalf("tele not carried forward: %+v", st.Tele)
	}
	if st.Fleet == nil || st.Fleet.Health[0].Bus != 3 {
		t.Fatalf("fleet not carried forward: %+v", st.Fleet)
	}
	if v, ok := st.MonitorCache["fp1"]; !ok || !v[0].Found || v[0].TargetPercent != 5 {
		t.Fatalf("monitor cache: %+v", st.MonitorCache)
	}
	if len(st.Outcomes) != 2 || st.Outcomes[0] != OutcomeClean || st.Outcomes[1] != OutcomeDegraded {
		t.Fatalf("outcomes: %v", st.Outcomes)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.journal")
	j, err := CreateJournal(path, testJournalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCycle(&JournalRecord{Cycle: 1, Outcome: OutcomeClean}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate dying mid-write: an unterminated garbage tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"cycle","cycle":2,"outcome":"clean`)
	f.Close()

	j2, _, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal with torn tail: %v", err)
	}
	defer j2.Close()
	if len(recs) != 1 || recs[0].Cycle != 1 {
		t.Fatalf("records after truncation: %+v", recs)
	}
	// Appending after truncation keeps the chain intact.
	if err := j2.AppendCycle(&JournalRecord{Cycle: 2, Outcome: OutcomeHeld}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if _, _, recs, err = OpenJournal(path); err != nil || len(recs) != 2 {
		t.Fatalf("reopen after repair: %v, %d recs", err, len(recs))
	}
}

// TestJournalTamperDetected: a broken chain surfaces as this layer's
// ErrJournal (the chain mechanics themselves are internal/journal's tests).
func TestJournalTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.journal")
	j, err := CreateJournal(path, testJournalConfig())
	if err != nil {
		t.Fatal(err)
	}
	j.AppendCycle(&JournalRecord{Cycle: 1, Outcome: OutcomeClean})
	j.AppendCycle(&JournalRecord{Cycle: 2, Outcome: OutcomeClean})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip cycle 1's outcome in place.
	tampered := strings.Replace(string(data), `"outcome":"clean"`, `"outcome":"held!"`, 1)
	if tampered == string(data) {
		t.Fatal("tamper had no effect")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(path); !errors.Is(err, ErrJournal) {
		t.Fatalf("tampered journal opened: %v", err)
	}
}

// TestJournalEmptyRejected: an empty file is no journal — an ErrJournal to
// OpenJournal callers, and journal.ErrNoJournal so Resume can start fresh.
func TestJournalEmptyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.journal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(path); !errors.Is(err, ErrJournal) || !errors.Is(err, journal.ErrNoJournal) {
		t.Fatalf("empty journal: %v, want ErrJournal and journal.ErrNoJournal", err)
	}
}

// TestJournalGoldenFormat opens a loop journal written by an earlier build
// (eight faulted cycles and a monitor verdict) and re-appends its records:
// the on-disk format must reproduce the file byte for byte.
func TestJournalGoldenFormat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.journal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "golden.journal")
	if err := os.WriteFile(src, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j, cfg, recs, err := OpenJournal(src)
	if err != nil {
		t.Fatalf("golden journal no longer opens: %v", err)
	}
	j.Close()

	dst := filepath.Join(dir, "rewritten.journal")
	w, err := CreateJournal(dst, *cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case recCycle:
			err = w.AppendCycle(r)
		case recMonitor:
			err = w.AppendMonitor(r.Cycle, r.Fingerprint, r.Verdicts)
		default:
			t.Fatalf("unexpected record kind %q", r.Kind)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("re-appended journal differs from the golden file:\n got %s\nwant %s", got, golden)
	}
}
