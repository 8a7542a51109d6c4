// Command gridbench is the repository's benchmark. It measures the Fig. 2
// impact analyzer, the gridattackd service and the supervised fleet loop
// from outside, through their public Go APIs and the service's HTTP API,
// checks every verdict it receives, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) by name and unit.
//
//	gridbench -workload analyze-lp -seed 1 -seconds 20 -trace 0
//	gridbench -workload all -seed 2
//	gridbench compare 'parent/*.json' 'change/*.json'
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every untraced run reports, in print order.
// BENCHMARK.json fixes their bounds; TestMetricNamesMatchBenchmarkFile keeps
// the two lists equal.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// layerSpans maps span names to the per-layer timing metrics derived from
// them: the mean span duration, i.e. the layer's busy time per call, which
// unlike a median moves when only the largest calls get faster. Every
// traced run produces spans for every entry: from its own operations where
// they call the layer, otherwise from the layer census (census.go).
var layerSpans = []struct{ span, name, unit string }{
	{"textio.parse", "textio.parse_us", "us"},
	{"serve.parse", "serve.parse_us", "us"},
	{"core.cachekey", "core.cachekey_us", "us"},
	{"opf.solve", "opf.solve_ms", "ms"},
	{"attack.encode", "attack.encode_ms", "ms"},
	{"attack.search", "attack.search_ms", "ms"},
	{"attack.block", "attack.block_us", "us"},
	{"opf.verify", "opf.verify_ms", "ms"},
	{"scada.collect", "scada.collect_ms", "ms"},
	{"ems.cycle.memo_miss", "ems.cycle_ms.memo_miss", "ms"},
	{"ems.cycle.memo_hit", "ems.cycle_ms.memo_hit", "ms"},
	{"ems.agc", "ems.agc_us", "us"},
	{"core.journal_append", "core.journal_append_us", "us"},
	{"fleet.journal_append", "fleet.journal_append_us", "us"},
}

// layerCounts are per-layer counters read from the public reports of the
// traced run's own operations; a workload that never reaches a layer
// reports its counters as 0.
var layerCounts = []struct{ name, unit string }{
	{"core.iterations", "count"},
	{"attack.search_calls", "count"},
	{"core.prescreen_pruned", "count"},
	{"core.overlap", "ratio"},
	{"opf.warm_hit_frac", "ratio"},
	{"smt.conflicts", "count"},
	{"smt.decisions", "count"},
	{"smt.pivots", "count"},
	{"smt.theory_props", "count"},
	{"smt.rat64_fast_ops", "count"},
	{"smt.rat64_big_ops", "count"},
	{"smt.fast_path_frac", "ratio"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.refused", "count"},
	{"serve.jobs_failed", "count"},
	{"serve.disk_bytes_per_cold", "bytes"},
	{"fleet.clean", "count"},
	{"fleet.degraded", "count"},
	{"fleet.held", "count"},
	{"fleet.attempts", "count"},
	{"fleet.trips", "count"},
	{"fleet.recovered", "count"},
}

type workload struct {
	name string
	run  func(*run) error
	// kernelWidth is how many CPUs the workload keeps busy, and so how many
	// reference kernels run at once when its times are scaled to the
	// reference machine speed (speed.go).
	kernelWidth int
	// elasticity is how strongly the workload's operation times follow the
	// kernel's: they are scaled by speed factor^elasticity (speed.go).
	elasticity float64
}

var workloads = []workload{
	{"analyze-lp", func(r *run) error { return runAnalyze(r, analyzeLP) }, 1, 1},
	{"analyze-smt", func(r *run) error { return runAnalyze(r, analyzeSMT) }, runtime.NumCPU(), 1},
	{"serve-mix", runServe, runtime.NumCPU(), 0.5},
	{"fleet-118", runFleet, 1, 1},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	short    bool
	workdir  string
	pin      string // expectations file to write instead of checking
}

// run is one workload execution: what was attempted, what failed, and the
// numbers it produced.
type run struct {
	cfg        config
	tr         *tracer // nil unless tracing
	exp        *expectations
	attempted  int
	failed     int
	mismatches []string
	metrics    map[string]metric // the metrics the result line reports
	layers     map[string]metric // workload-specific detail, run record only
	samples    map[string]int
	speed      speedProbe
}

// kernelReps is how many reference-kernel timings a run takes at its start
// and at its end (speed.go).
const kernelReps = 8

// mismatch records an operation whose output disagrees with what was
// expected; it makes the run incorrect.
func (r *run) mismatch(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < maxReported {
		msg := fmt.Sprintf(format, args...)
		r.mismatches = append(r.mismatches, msg)
		fmt.Fprintln(os.Stderr, "gridbench: MISMATCH:", msg)
	}
}

// maxReported caps the mismatches a run prints and records; the count of
// failures stays exact.
const maxReported = 20

func (r *run) set(name string, v float64, unit string)   { r.metrics[name] = metric{v, unit} }
func (r *run) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// record is the run's full artifact, written as JSON next to the spans.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Short      bool              `json:"short,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	Samples    map[string]int    `json:"samples,omitempty"`
	Mismatches []string          `json:"mismatches,omitempty"`
	// SpeedFactor scaled setup_s, and SpeedFactor^Elasticity every other
	// time in Metrics and Layers (speed.go); KernelMS is the reference
	// kernel's median time in this run.
	SpeedFactor float64     `json:"speed_factor"`
	Elasticity  float64     `json:"elasticity"`
	KernelMS    float64     `json:"kernel_ms"`
	Env         environment `json:"env"`
	Finished    time.Time   `json:"finished"`
}

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal measured seconds per run; fixes the amount of work")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	workdir := fs.String("workdir", ".bench_build/work", "directory for journals, run records and spans")
	short := fs.Bool("short", false, "toy sizes (paper5, one pass, 50 queries, 10 cycles) for smoke tests")
	pin := fs.String("pin", "", "write the observed verdicts into this expectations file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "gridbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "gridbench: -seconds must be at least 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, workdir: *workdir, pin: *pin}
	if cfg.workload == "all" {
		return runAll(args)
	}
	for _, w := range workloads {
		if w.name == cfg.workload {
			if _, err := runOne(cfg, w, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", w.name, err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "gridbench: unknown workload %q (want analyze-lp, analyze-smt, serve-mix, fleet-118 or all)\n", cfg.workload)
	return 2
}

var errIncorrect = errors.New("outputs did not match their expectations")

// runOne executes one workload in this process, writes its run record and
// prints its result to out.
func runOne(cfg config, w workload, out io.Writer) (record, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return record{}, err
	}
	exp, err := loadExpectations(cfg.pin)
	if err != nil {
		return record{}, err
	}
	r := &run{cfg: cfg, exp: exp, metrics: map[string]metric{}, layers: map[string]metric{}, samples: map[string]int{}}
	r.speed.width = w.kernelWidth
	if cfg.trace {
		r.tr = newTracer()
		for _, c := range layerCounts {
			r.set(c.name, 0, c.unit)
		}
	}
	r.speed.sample(kernelReps)
	if err := w.run(r); err != nil {
		return record{}, err
	}
	r.speed.sample(kernelReps)
	if cfg.trace {
		for _, l := range layerSpans {
			d := r.tr.durations(l.span, "")
			if len(d) == 0 {
				return record{}, fmt.Errorf("traced run recorded no %s span", l.span)
			}
			scale := 1.0
			if l.unit == "us" {
				scale = 1000
			}
			r.set(l.name, mean(d)*scale, l.unit)
		}
		if err := r.tr.write(filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return record{}, err
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		for _, m := range endToEnd {
			if _, ok := r.metrics[m.name]; !ok {
				return record{}, fmt.Errorf("run produced no %s", m.name)
			}
		}
	}
	// Set-up is compute throughout and follows the kernel fully; the
	// operations follow it as strongly as the workload's elasticity says.
	factor := r.speed.factor()
	opScale := math.Pow(factor, w.elasticity)
	for _, m := range []map[string]metric{r.metrics, r.layers} {
		for name, v := range m {
			switch {
			case name == "setup_s":
				m[name] = metric{v.Value * factor, v.Unit}
			case isTime(v.Unit):
				m[name] = metric{v.Value * opScale, v.Unit}
			}
		}
	}
	if cfg.pin != "" {
		if err := r.exp.save(cfg.pin); err != nil {
			return record{}, err
		}
	}
	correct := len(r.mismatches) == 0
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Short: cfg.short,
		Correct: correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.metrics, Layers: r.layers, Mismatches: r.mismatches,
		SpeedFactor: factor, Elasticity: w.elasticity, KernelMS: median(r.speed.samples), Samples: r.samples,
		Env: currentEnvironment(cfg.workdir), Finished: time.Now().UTC(),
	}
	if err := writeJSON(filepath.Join(cfg.workdir, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))), rec); err != nil {
		return record{}, err
	}
	printResult(out, rec)
	if !correct {
		return rec, errIncorrect
	}
	return rec, nil
}

func isTime(unit string) bool { return unit == "s" || unit == "ms" || unit == "us" }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the result object the last stdout line carries.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, rec record) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s seed %d trace %v: attempted %d failed %d correct %v; times at reference speed (factor %.4f)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct, rec.SpeedFactor)
	for _, name := range sortedKeys(rec.Layers) {
		m := rec.Layers[name]
		fmt.Fprintf(bw, "  detail %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(bw, "  metric %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	bw.Write(line)
	bw.WriteByte('\n')
	bw.Flush()
}

// runAll runs every workload in its own child process (a fresh heap and a
// peak RSS of its own) and prints a combined result.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	status := 0
	for _, w := range workloads {
		fmt.Printf("=== %s\n", w.name)
		var out bytes.Buffer
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		os.Stdout.Write(out.Bytes())
		var line resultLine
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %s printed no result (%v)\n", w.name, err)
			all.Correct = false
			status = 1
			continue
		}
		if err != nil {
			status = 1
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for k, m := range line.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return status
}

// setupMedian runs setup n times, tears down every instance but the last,
// and returns the last instance with the median set-up time in seconds.
// Repeating the set-up inside one run, each time on a collected heap, is
// what makes setup_s steady enough to bound. A burst of reference kernels
// before each set-up spreads the set-ups over time, so a slow stretch of
// the machine lasting a few set-ups cannot move their median.
func setupMedian[T any](p *speedProbe, n int, setup func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(cur)
		}
		p.sample(kernelBurst)
		runtime.GC()
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur = v
	}
	return cur, median(times), nil
}

// allocMeter measures heap bytes allocated across the timed phase (the
// paper's Table IV method: MemStats.TotalAlloc deltas), leaving out the
// reference kernel's own allocations.
type allocMeter struct {
	speed          *speedProbe
	before, kernel uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (r *run) startAlloc() allocMeter {
	return allocMeter{speed: &r.speed, before: totalAlloc(), kernel: r.speed.allocBytes}
}

// perOp returns the MB allocated since start per operation.
func (a allocMeter) perOp(ops int) float64 {
	if ops == 0 {
		return 0
	}
	bytes := totalAlloc() - a.before - (a.speed.allocBytes - a.kernel)
	return float64(bytes) / 1e6 / float64(ops)
}
