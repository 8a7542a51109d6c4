package main

import (
	"math/rand"
	"testing"
)

func pairs(n int, parent, change func(i int) float64) (a, b []float64) {
	for i := 0; i < n; i++ {
		a = append(a, parent(i))
		b = append(b, change(i))
	}
	return a, b
}

func TestJudge(t *testing.T) {
	lower := bound{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "rate", Better: "higher", Bound: 0.10}
	noise := func(seed int64, spread float64) func(int) float64 {
		rng := rand.New(rand.NewSource(seed))
		return func(int) float64 { return 100 * (1 + spread*(rng.Float64()-0.5)) }
	}
	scaled := func(f func(int) float64, k float64) func(int) float64 {
		return func(i int) float64 { return k * f(i) }
	}
	for _, c := range []struct {
		name string
		bd   bound
		a, b []float64
		want string
	}{
		{"clear gain", lower, nil, nil, "improved"},
		{"gain on too few pairs", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "unchanged"},
		{"beyond the bound", lower, nil, nil, "regressed"},
		{"within noise", lower, nil, nil, "unchanged"},
		{"noisier than the bound", lower, nil, nil, "unresolved"},
		{"higher is better", higher, []float64{100, 100, 100}, []float64{85, 85, 85}, "regressed"},
	} {
		a, b := c.a, c.b
		switch c.name {
		case "clear gain":
			a, b = pairs(10, noise(1, 0.02), scaled(noise(2, 0.02), 0.8))
		case "beyond the bound":
			a, b = pairs(10, noise(3, 0.02), scaled(noise(4, 0.02), 1.2))
		case "within noise":
			a, b = pairs(10, noise(5, 0.02), noise(6, 0.02))
		case "noisier than the bound":
			a, b = pairs(10, noise(7, 0.6), noise(8, 0.6))
		}
		if got := judge("w", c.bd, a, b); got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d/%d, parent %v, change %v), want %q", c.name, got.verdict, got.wins, got.pairs, got.a, got.b, c.want)
		}
	}
}

// A gain of one unit on a metric whose parent runs spread over more than
// one unit is not a gain, however often it wins.
func TestJudgeNeedsMoreThanTheParentSpread(t *testing.T) {
	a := []float64{95, 96, 97, 98, 99, 100, 101, 102, 103, 104}
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i] - 1
	}
	if got := judge("w", bound{Better: "lower", Bound: 0.1}, a, b); got.verdict != "unchanged" || got.wins != 10 {
		t.Fatalf("verdict %q with %d wins, want unchanged with 10", got.verdict, got.wins)
	}
}

func TestCompareRunsPairsBySeed(t *testing.T) {
	rec := func(w string, seed int64, v float64) record {
		return record{Workload: w, Seed: seed, Metrics: map[string]metric{"p50_ms": {v, "ms"}}}
	}
	parent := []record{rec("x", 1, 10), rec("x", 2, 10), rec("y", 1, 5), rec("x", 9, 10)}
	change := []record{rec("x", 2, 20), rec("x", 1, 20), rec("y", 1, 5)}
	rows := compareRuns(parent, change, []bound{{Name: "p50_ms", Better: "lower", Bound: 0.1}, {Name: "absent", Better: "lower", Bound: 0.1}})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want one per workload: %+v", len(rows), rows)
	}
	if rows[0].workload != "x" || rows[0].pairs != 2 || rows[0].verdict != "regressed" {
		t.Errorf("x: %+v, want 2 pairs regressed", rows[0])
	}
	if rows[1].workload != "y" || rows[1].pairs != 1 || rows[1].verdict != "unchanged" {
		t.Errorf("y: %+v, want 1 pair unchanged", rows[1])
	}
}
