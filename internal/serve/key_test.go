package serve

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"gridattack/internal/cases"
	"gridattack/internal/core"
)

func parseKey(t *testing.T, req JobRequest) string {
	t.Helper()
	p, err := ParseJobRequest(jobBody(t, req), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Key
}

// sectionOf mirrors the textio parser's header matching (same precedence:
// resource before measurement, bus types before generator/load).
func sectionOf(header string) string {
	h := strings.ToLower(header)
	switch {
	case strings.Contains(h, "topology") || strings.Contains(h, "line information"):
		return "topology"
	case strings.Contains(h, "resource"):
		return "resource"
	case strings.Contains(h, "measurement"):
		return "measurement"
	case strings.Contains(h, "bus type"):
		return "bustypes"
	case strings.Contains(h, "generator"):
		return "generators"
	case strings.Contains(h, "load"):
		return "loads"
	case strings.Contains(h, "cost"):
		return "cost"
	}
	return ""
}

// reorderInput rewrites the text input with its sections rotated into a
// different file order and the order-free rows (measurements, generators,
// loads) reversed in place. Bus-type and topology rows keep their mandated
// ID order.
func reorderInput(t *testing.T, text string) string {
	t.Helper()
	type section struct {
		name  string
		lines []string
	}
	var sections []*section
	cur := &section{}
	sections = append(sections, cur)
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			if name := sectionOf(trimmed); name != "" {
				cur = &section{name: name}
				sections = append(sections, cur)
			}
		}
		cur.lines = append(cur.lines, line)
	}
	shuffled := 0
	for _, sec := range sections {
		switch sec.name {
		case "measurement", "generators", "loads":
		default:
			continue
		}
		// Reverse the data rows, leaving comments and blanks where they are.
		var dataIdx []int
		for i, line := range sec.lines {
			tl := strings.TrimSpace(line)
			if tl != "" && !strings.HasPrefix(tl, "#") {
				dataIdx = append(dataIdx, i)
			}
		}
		for l, r := 0, len(dataIdx)-1; l < r; l, r = l+1, r-1 {
			sec.lines[dataIdx[l]], sec.lines[dataIdx[r]] = sec.lines[dataIdx[r]], sec.lines[dataIdx[l]]
		}
		if len(dataIdx) > 1 {
			shuffled++
		}
	}
	if shuffled < 3 {
		t.Fatalf("only reordered %d sections; input format changed?", shuffled)
	}
	rotated := append(append([]*section(nil), sections[len(sections)/2:]...), sections[:len(sections)/2]...)
	var out []string
	for _, sec := range rotated {
		out = append(out, sec.lines...)
	}
	return strings.Join(out, "\n")
}

// TestKeyInvariantUnderReorder: the same problem loaded from a
// differently-ordered input file must content-address identically, so
// overlapping tenant queries share one cache entry.
func TestKeyInvariantUnderReorder(t *testing.T) {
	for _, name := range []string{"paper5", "ieee14"} {
		text := caseInputText(t, name, 7, 3)
		reordered := reorderInput(t, text)
		if reordered == text {
			t.Fatalf("%s: reorder was a no-op", name)
		}
		k1 := parseKey(t, JobRequest{Input: text})
		k2 := parseKey(t, JobRequest{Input: reordered})
		if k1 != k2 {
			t.Fatalf("%s: reordered input changed the cache key:\n%s\n%s", name, k1, k2)
		}
	}
}

// TestKeySensitiveToOneULP: a one-ULP float perturbation must change the
// key. Built in memory because the textio writer's %.4f rendering is lossy
// and would collapse the two problems onto one file.
func TestKeySensitiveToOneULP(t *testing.T) {
	c, err := cases.ByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewScenario(c, core.ScenarioConfig{Seed: 7})
	kc := core.KeyConfig{Targets: []float64{3}}
	base := core.CacheKey(sc.Case.Grid, sc.Plan, sc.Capability, kc)

	perturb := []func() (string, func()){
		func() (string, func()) {
			old := sc.Case.Grid.Loads[0].P
			sc.Case.Grid.Loads[0].P = math.Nextafter(old, math.Inf(1))
			return "load P", func() { sc.Case.Grid.Loads[0].P = old }
		},
		func() (string, func()) {
			old := sc.Case.Grid.Lines[0].Admittance
			sc.Case.Grid.Lines[0].Admittance = math.Nextafter(old, math.Inf(1))
			return "line admittance", func() { sc.Case.Grid.Lines[0].Admittance = old }
		},
		func() (string, func()) {
			old := sc.Case.Grid.Generators[0].Alpha
			sc.Case.Grid.Generators[0].Alpha = math.Nextafter(old, math.Inf(1))
			return "generator alpha", func() { sc.Case.Grid.Generators[0].Alpha = old }
		},
	}
	for _, apply := range perturb {
		what, restore := apply()
		got := core.CacheKey(sc.Case.Grid, sc.Plan, sc.Capability, kc)
		restore()
		if got == base {
			t.Errorf("one-ULP change to %s did not change the key", what)
		}
		if core.CacheKey(sc.Case.Grid, sc.Plan, sc.Capability, kc) != base {
			t.Fatalf("restore after %s did not round-trip", what)
		}
	}
}

// TestKeyConfigSensitivity: configuration that can change a definitive
// verdict is keyed; analyzer-default normalization maps equivalent requests
// onto one key.
func TestKeyConfigSensitivity(t *testing.T) {
	input := caseInputText(t, "paper5", 7, 3)
	base := parseKey(t, JobRequest{Input: input})

	same := map[string]JobRequest{
		"explicit lp":               {Input: input, Verify: "lp"},
		"explicit default maxiter":  {Input: input, MaxIterations: 200},
		"explicit default target":   {Input: input, Targets: []float64{3}},
		"whitespace-different file": {Input: "\n" + input + "\n\n"},
	}
	for name, req := range same {
		if k := parseKey(t, req); k != base {
			t.Errorf("%s: expected the normalized key %s, got %s", name, base, k)
		}
	}

	diff := map[string]JobRequest{
		"smt verify":      {Input: input, Verify: "smt"},
		"shift verify":    {Input: input, Verify: "shift"},
		"other target":    {Input: input, Targets: []float64{4}},
		"ladder":          {Input: input, Targets: []float64{3, 4}},
		"iteration cap":   {Input: input, MaxIterations: 5},
		"block precision": {Input: input, BlockPrecision: 0.5},
		"state infection": {Input: input, States: true},
		"certified":       {Input: input, Certify: true},
	}
	seen := map[string]string{base: "base"}
	for name, req := range diff {
		k := parseKey(t, req)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collide on key %s", name, prev, k)
		}
		seen[k] = name
	}

	// Budgets are transport-tier properties, not request fields, and are
	// deliberately absent from KeyConfig: a budget can only withhold a
	// verdict, never change one, and non-definitive results are never
	// cached.
	c, err := cases.ByName("paper5")
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewScenario(c, core.ScenarioConfig{Seed: 7})
	kc := core.KeyConfig{Targets: []float64{3}}
	k1 := core.CacheKey(sc.Case.Grid, sc.Plan, sc.Capability, kc)
	k2 := core.CacheKey(sc.Case.Grid, sc.Plan, sc.Capability, core.KeyConfig{Targets: []float64{3}})
	if k1 != k2 {
		t.Fatal("CacheKey is not a pure function of its inputs")
	}
}

// TestKeyPinned: keys stay byte-identical across versions, so a daemon's
// durable results and journals keep their names. Both were recorded before
// the analysis had one search path, when the key also carried the encoding.
func TestKeyPinned(t *testing.T) {
	input := caseInputText(t, "paper5", 7, 3)
	pins := map[string]struct {
		req JobRequest
		key string
	}{
		"default":   {JobRequest{Input: input}, "78bcafbaeb8c68282b7da0ac300de683dc415add0c9632805a00167222c629ef"},
		"certified": {JobRequest{Input: input, Certify: true}, "dbcc9dab5bc3718f8a2fd0f05fd876f4e2e783164b2dbdf4273b560efc95886a"},
	}
	for name, p := range pins {
		if got := parseKey(t, p.req); got != p.key {
			t.Errorf("%s: key %s, want %s", name, got, p.key)
		}
	}
}

// TestRequestRefusesColdEncodingField: earlier versions took a request field
// that forced the cold encoding. The analysis has one search path now, so a
// request that still sets the field, to either value, is refused like any
// unknown field.
func TestRequestRefusesColdEncodingField(t *testing.T) {
	input := caseInputText(t, "paper5", 7, 3)
	for _, v := range []bool{true, false} {
		body, err := json.Marshal(map[string]any{"input": input, "no_" + "incremental": v})
		if err != nil {
			t.Fatal(err)
		}
		if p, err := ParseJobRequest(body, Limits{}); !errors.Is(err, ErrRequest) || p != nil {
			t.Errorf("field set to %t: parsed=%v err=%v, want a refusal wrapping ErrRequest", v, p != nil, err)
		}
	}
}

// TestKeyTargetOrderMatters: a ladder's answer is per-target in input order,
// so target order is part of the content address.
func TestKeyTargetOrderMatters(t *testing.T) {
	input := caseInputText(t, "paper5", 7, 3)
	a := parseKey(t, JobRequest{Input: input, Targets: []float64{1, 3}})
	b := parseKey(t, JobRequest{Input: input, Targets: []float64{3, 1}})
	if a == b {
		t.Fatal("reordered targets produced the same key")
	}
}
