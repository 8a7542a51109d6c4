package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	_ "embed"
)

// expectJSON holds the pinned verdicts. Regenerate it with -pin (see
// bench/README.md) only when a change is meant to alter verdicts.
//
//go:embed testdata/expect.json
var expectJSON []byte

// expectations pins what every run must reproduce. The pinned inputs do not
// depend on the seed, so one file serves every seed; only the fleet's
// outcome counts, which follow the seeded fault schedule, are pinned per
// seed.
type expectations struct {
	// Analyze maps workload -> problem id -> verdict.
	Analyze map[string]map[string]verdictPin `json:"analyze"`
	// Serve maps a repeated key's label to the SHA-256 of its
	// Result.VerdictBytes.
	Serve map[string]string `json:"serve"`
	Fleet fleetPins         `json:"fleet"`

	pinning bool
}

// verdictPin is the verdict-relevant part of a core.Report. Floats are kept
// as IEEE-754 bit patterns so a one-ulp drift is a mismatch.
type verdictPin struct {
	Found        bool   `json:"found"`
	Exhausted    bool   `json:"exhausted"`
	Canceled     bool   `json:"canceled"`
	Iterations   int    `json:"iterations"`
	Vector       string `json:"vector"`
	BaselineCost string `json:"baseline_cost"`
	AttackedCost string `json:"attacked_cost"`
}

type fleetPins struct {
	// Dispatch is the digest of the dispatch and set-point after the
	// fault-free prefix; the post-recovery dispatch must equal it bitwise.
	Dispatch string `json:"dispatch"`
	// Counts maps "<seed>/<cycles>" to the outcome counts of that run.
	Counts map[string]fleetCounts `json:"counts"`
}

type fleetCounts struct {
	Clean     int `json:"clean"`
	Degraded  int `json:"degraded"`
	Held      int `json:"held"`
	Attempts  int `json:"attempts"`
	Trips     int `json:"trips"`
	Recovered int `json:"recovered"`
}

// loadExpectations reads the embedded pins, or, when pinning into an
// existing file, that file, so successive -pin runs accumulate.
func loadExpectations(pin string) (*expectations, error) {
	data := expectJSON
	if pin != "" {
		if b, err := os.ReadFile(pin); err == nil {
			data = b
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	e := &expectations{}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	if e.Analyze == nil {
		e.Analyze = map[string]map[string]verdictPin{}
	}
	if e.Serve == nil {
		e.Serve = map[string]string{}
	}
	if e.Fleet.Counts == nil {
		e.Fleet.Counts = map[string]fleetCounts{}
	}
	e.pinning = pin != ""
	return e, nil
}

func (e *expectations) save(path string) error { return writeJSON(path, e) }

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkVerdict compares one analysis verdict with its pin (or pins it).
func (r *run) checkVerdict(workload, id string, got verdictPin) {
	e := r.exp
	if e.pinning {
		if e.Analyze[workload] == nil {
			e.Analyze[workload] = map[string]verdictPin{}
		}
		e.Analyze[workload][id] = got
		return
	}
	want, ok := e.Analyze[workload][id]
	switch {
	case !ok:
		r.mismatch("%s %s: no pinned verdict", workload, id)
	case got != want:
		r.mismatch("%s %s: verdict %+v, pinned %+v", workload, id, got, want)
	}
}

// checkDigest compares a named digest with its pin (or pins it).
func (r *run) checkDigest(pins map[string]string, label, got string) {
	if r.exp.pinning {
		pins[label] = got
		return
	}
	if want, ok := pins[label]; !ok || want != got {
		r.mismatch("%s: digest %s, pinned %q", label, got, want)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
