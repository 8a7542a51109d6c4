package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestSmoke runs every workload at toy size, untraced and traced, so the
// harness cannot rot: each run must be correct, fail nothing, and report
// every metric BENCHMARK.json names for its mode.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 20, trace: trace, short: true, workdir: dir}
			rec, err := runOne(cfg, w, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v (mismatches %v)", w.name, trace, err, rec.Mismatches)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct %v, %d of %d failed", w.name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			want := map[string]string{}
			if trace {
				for _, l := range layerSpans {
					want[l.name] = l.unit
				}
				for _, c := range layerCounts {
					want[c.name] = c.unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.name] = m.unit
				}
			}
			for name, unit := range want {
				m, ok := rec.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, name, m, ok, unit)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want exactly %d", w.name, trace, len(rec.Metrics), len(want))
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkFile keeps the metric lists here and in
// BENCHMARK.json the same.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layers [][2]string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	var wantE2E, wantLayers [][2]string
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, [2]string{m.name, m.unit})
	}
	for _, l := range layerSpans {
		wantLayers = append(wantLayers, [2]string{l.name, l.unit})
	}
	for _, c := range layerCounts {
		wantLayers = append(wantLayers, [2]string{c.name, c.unit})
	}
	if !equalPairs(e2e, wantE2E) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code reports %v", e2e, wantE2E)
	}
	if !equalPairs(layers, wantLayers) {
		t.Errorf("per_layer in BENCHMARK.json %v, code reports %v", layers, wantLayers)
	}
}

func equalPairs(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
