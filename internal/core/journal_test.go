package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/grid"
)

func testVector() *attack.Vector {
	return &attack.Vector{
		ExcludedLines:       []int{6},
		AlteredMeasurements: []int{6, 13, 17, 18},
		CompromisedBuses:    []int{2, 4},
		DeltaFlow:           []float64{0, 0.25, -0.1, 0, 0, 0.47, 0},
		DeltaConsumption:    []float64{0.1, -0.2, 0, 0, 0.1},
		ObservedLoads:       []float64{1.1, 0.8, 0, 0, 2.3},
		DeltaTheta:          []float64{0, 0, 0, 0, 0},
		MappedTopology:      grid.NewTopology([]int{1, 2, 3, 4, 5, 7}),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := JournalConfig{Buses: 5, Lines: 7, BaselineCost: 1534.25, Threshold: 1580.2775, MaxIterations: 200, VerifyMode: 1}
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := testVector()
	if err := j.AppendIter(1, v, 1550, false); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendIter(2, v, 1590, true); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendFinal(true, false, v, 1590); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j2.Close()
	if *got != cfg {
		t.Fatalf("config round trip: got %+v, want %+v", *got, cfg)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Kind != RecIter || recs[0].Reached || recs[0].Cost != 1550 {
		t.Fatalf("record 0 mismatch: %+v", recs[0])
	}
	if !recs[1].Reached {
		t.Fatalf("record 1 lost Reached: %+v", recs[1])
	}
	if recs[2].Kind != RecFinal || !recs[2].Found {
		t.Fatalf("final record mismatch: %+v", recs[2])
	}
	if !vectorsEqual(recs[0].Vector, v) {
		t.Fatalf("vector did not round-trip:\n got %+v\nwant %+v", recs[0].Vector, v)
	}
}

// TestJournalTornTailTruncated simulates a crash inside an append: the
// unterminated tail must be dropped, everything before it kept.
func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, JournalConfig{Buses: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendIter(1, testVector(), 10, false); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"iter","iter":2,"cos`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, _, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal with torn tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records after torn-tail truncation, want 1", len(recs))
	}
	// The journal must be appendable after truncation, and the result must
	// re-open cleanly.
	if err := j2.AppendIter(2, testVector(), 11, true); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, _, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("re-open after post-truncation append: %v", err)
	}
	j3.Close()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

// TestJournalRejectsTampering: a broken chain surfaces as this layer's
// ErrJournal (the chain mechanics themselves are internal/journal's tests).
func TestJournalRejectsTampering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, JournalConfig{Buses: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendIter(1, testVector(), 1550, false); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte("1550"), []byte("1551"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(path); !errors.Is(err, ErrJournal) {
		t.Fatalf("OpenJournal error = %v, want ErrJournal", err)
	}
}

// TestJournalGoldenFormat opens a journal written by an earlier build (a
// Case Study 2 run: seven iterations and a final verdict) and re-appends its
// records: the on-disk format must reproduce the file byte for byte.
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
	for _, r := range recs {
		switch r.Kind {
		case RecIter:
			err = w.AppendIter(r.Iter, r.Vector, r.Cost, r.Reached)
		case RecFinal:
			err = w.AppendFinal(r.Found, r.Exhausted, r.Vector, r.AttackedCost)
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
