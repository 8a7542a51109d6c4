package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gridattack/internal/cases"
	"gridattack/internal/core"
	"gridattack/internal/serve"
)

// serve-mix: open-loop traffic from independent tenants against an
// in-process durable gridattackd (real loopback HTTP, two workers). Hot and
// ladder queries repeat a fixed 10-key set that set-up prewarms, so they are
// the cache's read path; cold queries each carry a unique seeded target, so
// they take the write path: queueing, the solve, the fsync'd journal and the
// result files.

// The service shares two CPUs with its clients, so 400 q/s already sits near
// the knee of its latency curve (800 q/s saturates it). The end-to-end
// latencies come from the 100 q/s phase: there queueing stays short even
// when other tenants of the machine halve its speed, so latency scales with
// the machine's speed and the reference kernel can take that out (speed.go);
// nearer the knee a slowdown grows the queue and latency much more than in
// proportion. The other phases show how latency grows with load.
var (
	serveRates      = []int{100, 200, 400}       // q/s per phase, in run order
	servePhaseShare = []float64{0.5, 0.25, 0.25} // share of the run per phase
	serveShortN     = []int{20, 10, 20}          // queries per phase with -short
)

const (
	serveRefRate  = 100 // the phase the end-to-end latencies come from
	hotFrac       = 0.5
	ladderFrac    = 0.2
	sloP99ms      = 50.0
	coldChecks    = 24 // cold verdicts re-solved in-process after the traffic
	traceColdRuns = 48 // cold jobs re-timed through Analyzer.Run when tracing
	serveTenants  = 4
)

// serveScenario is one problem the traffic draws from, rendered as the
// text a client would upload.
type serveScenario struct {
	label string
	a     core.Analyzer
	text  string
}

// serveKey is one of the ten repeated (cached) request bodies.
type serveKey struct {
	label, class string
	scenario     int
	body         []byte
}

type query struct {
	phase    int
	class    string
	key      int // serveKey index for hot/ladder; -1 for cold
	scenario int
	target   float64
	tenant   string
	body     []byte
	due      time.Duration // from the start of its phase
}

type queryOutcome struct {
	latency, late time.Duration
	refused       bool
	err           error
	res           *serve.Result
	jobID         string
	queued        bool // answered 202: went through the queue
	elapsedMS     int64
}

func serveScenarios() ([]serveScenario, error) {
	var out []serveScenario
	for _, name := range []string{"paper5", "ieee14"} {
		c, err := cases.ByName(name)
		if err != nil {
			return nil, err
		}
		for s := int64(1); s <= 3; s++ {
			sc := core.NewScenario(c, core.ScenarioConfig{Seed: s})
			text, _, err := renderRequest(*sc.Analyzer(3), []float64{3})
			if err != nil {
				return nil, err
			}
			out = append(out, serveScenario{label: fmt.Sprintf("%s/s%d", name, s), a: *sc.Analyzer(3), text: text})
		}
	}
	return out, nil
}

func requestBody(text string, targets []float64) []byte {
	b, err := json.Marshal(serve.JobRequest{Input: text, Targets: targets})
	if err != nil {
		panic(err) // a string and floats always marshal
	}
	return b
}

// serveKeys is the fixed repeated-query set: a 3% single-target query per
// scenario (hot) and two threshold ladders on each system's first scenario.
func serveKeys(scs []serveScenario) []serveKey {
	var keys []serveKey
	for i, sc := range scs {
		keys = append(keys, serveKey{label: "hot/" + sc.label, class: "hot", scenario: i, body: requestBody(sc.text, []float64{3})})
	}
	ladders := [][]float64{{1, 2, 3, 5, 8}, {0.5, 1.5, 2.5}}
	for _, i := range []int{0, 3} {
		for j, l := range ladders {
			keys = append(keys, serveKey{label: fmt.Sprintf("ladder%d/%s", j, scs[i].label), class: "ladder", scenario: i, body: requestBody(scs[i].text, l)})
		}
	}
	return keys
}

// buildQueries draws the seeded open-loop schedule. Each phase has exact
// class counts, and its cold queries are spread evenly over the scenarios
// and stratified over the target range (one seeded target per stratum): the
// seed changes which targets are asked and in what order, but not how much
// solving a phase needs, which would otherwise vary with the verdicts the
// drawn targets happen to reach.
func buildQueries(cfg config, scs []serveScenario, keys []serveKey) []query {
	rng := rand.New(rand.NewSource(cfg.seed))
	var hot, ladder []int
	for i, k := range keys {
		if k.class == "hot" {
			hot = append(hot, i)
		} else {
			ladder = append(ladder, i)
		}
	}
	var qs []query
	for p, rate := range serveRates {
		n := int(math.Round(float64(rate) * float64(cfg.seconds) * servePhaseShare[p]))
		if cfg.short {
			n = serveShortN[p]
		}
		nHot, nLadder := int(float64(n)*hotFrac), int(float64(n)*ladderFrac)
		classes := rng.Perm(n) // < nHot: hot; < nHot+nLadder: ladder; else cold
		nCold := n - nHot - nLadder
		cells := rng.Perm(nCold) // cold cell c: scenario c%len(scs), stratum c/len(scs)
		strata := float64((nCold + len(scs) - 1) / len(scs))
		interval := time.Second / time.Duration(rate)
		for i := 0; i < n; i++ {
			q := query{phase: p, key: -1, tenant: fmt.Sprintf("tenant-%d", len(qs)%serveTenants), due: time.Duration(i) * interval}
			switch c := classes[i]; {
			case c < nHot:
				q.class, q.key = "hot", hot[rng.Intn(len(hot))]
			case c < nHot+nLadder:
				q.class, q.key = "ladder", ladder[rng.Intn(len(ladder))]
			default:
				cell := cells[c-nHot-nLadder]
				q.class, q.scenario = "cold", cell%len(scs)
				q.target = 0.5 + 10*(float64(cell/len(scs))+rng.Float64())/strata
				q.body = requestBody(scs[q.scenario].text, []float64{q.target})
			}
			if q.key >= 0 {
				q.scenario, q.body = keys[q.key].scenario, keys[q.key].body
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// service is one running gridattackd with its client.
type service struct {
	srv    *serve.Server
	http   *http.Server
	served chan struct{}
	base   string
	client *http.Client
	dir    string
}

func startService(dir string) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{Workers: runtime.NumCPU(), JournalDir: dir})
	if err != nil {
		return nil, err
	}
	if _, _, err := s.Recover(); err != nil {
		s.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	svc := &service{
		srv:    s,
		http:   &http.Server{Handler: s.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{
			Timeout: time.Minute,
			// At most nproc connections: the load comes from one process
			// that is no bigger than the machine.
			Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
		},
	}
	go func() {
		defer close(svc.served)
		svc.http.Serve(ln)
	}()
	return svc, nil
}

func (s *service) stop() {
	s.http.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// submitReply mirrors the service's POST /v1/jobs response.
type submitReply struct {
	JobID  string        `json:"job_id"`
	State  string        `json:"state"`
	Result *serve.Result `json:"result"`
}

// ask submits one body and waits for the verdict: a 200 carries it; after a
// 202 the client follows the job's event stream, which ends when the job
// does, and fetches the result. (Polling instead quantizes latency to the
// poll period and, at these rates, adds enough requests to push the
// service toward saturation.)
func (s *service) ask(tr *tracer, req string, parent int, tenant string, body []byte) queryOutcome {
	var out queryOutcome
	hreq, err := http.NewRequest(http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	hreq.Header.Set("X-Tenant", tenant)
	hreq.Header.Set("Content-Type", "application/json")
	post := tr.begin("http.post", parent, req)
	resp, err := s.client.Do(hreq)
	if err != nil {
		tr.end(post, "")
		out.err = err
		return out
	}
	var sub submitReply
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(post, "")
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		out.refused = true
		return out
	case derr != nil:
		out.err = fmt.Errorf("submit: status %d: %v", resp.StatusCode, derr)
		return out
	case resp.StatusCode == http.StatusOK:
		out.res, out.jobID = sub.Result, sub.JobID
		return out
	case resp.StatusCode != http.StatusAccepted:
		out.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return out
	}
	out.queued, out.jobID = true, sub.JobID
	wait := tr.begin("http.await", parent, req)
	defer tr.end(wait, "")
	events, err := s.client.Get(s.base + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	_, err = io.Copy(io.Discard, events.Body)
	events.Body.Close()
	if err != nil {
		out.err = err
		return out
	}
	var st serve.JobStatus
	if code, err := s.get("/v1/jobs/"+sub.JobID+"/result", &st); err != nil || code != http.StatusOK || st.Result == nil {
		out.err = fmt.Errorf("job %s ended %s (status %d, %v): %s", sub.JobID, st.State, code, err, st.Error)
		return out
	}
	out.res, out.elapsedMS = st.Result, st.ElapsedMS
	return out
}

// get fetches path and decodes its JSON body into v, returning the status.
func (s *service) get(path string, v any) (int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("GET %s: status %d: %w", path, resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

func (s *service) stats() (serve.StatsSnapshot, error) {
	var st serve.StatsSnapshot
	_, err := s.get("/v1/stats", &st)
	return st, err
}

// prewarm answers every repeated key once, so the traffic's hot and ladder
// queries are cache hits from the first one on.
func (s *service) prewarm(keys []serveKey) ([]*serve.Result, error) {
	res := make([]*serve.Result, len(keys))
	for i, k := range keys {
		out := s.ask(nil, "", 0, "prewarm", k.body)
		if out.err != nil || out.refused || out.res == nil {
			return nil, fmt.Errorf("prewarm %s: %v (refused %v)", k.label, out.err, out.refused)
		}
		res[i] = out.res
	}
	return res, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func runServe(r *run) error {
	cfg := r.cfg
	scs, err := serveScenarios()
	if err != nil {
		return err
	}
	keys := serveKeys(scs)
	queries := buildQueries(cfg, scs, keys)
	nSetup := 9
	if cfg.trace {
		nSetup = 1
	}
	var warm []*serve.Result
	svc, setupS, err := setupMedian(&r.speed, nSetup, func(i int) (*service, error) {
		svc, err := startService(filepath.Join(cfg.workdir, fmt.Sprintf("serve-%d", i)))
		if err != nil {
			return nil, err
		}
		if warm, err = svc.prewarm(keys); err != nil {
			svc.stop()
			return nil, err
		}
		return svc, nil
	}, func(svc *service) {
		svc.stop()
		os.RemoveAll(svc.dir)
	})
	if err != nil {
		return err
	}
	defer func() {
		svc.stop()
		os.RemoveAll(svc.dir)
	}()
	for i, k := range keys {
		r.checkDigest(r.exp.Serve, k.label, digest(string(warm[i].VerdictBytes())))
	}
	// Each scenario's attack-free baseline, as the service computed it for
	// the hot key; every cold answer on that scenario must agree.
	baseline := make([]float64, len(scs))
	for i, k := range keys {
		if k.class == "hot" {
			baseline[k.scenario] = warm[i].Rungs[0].BaselineCost
		}
	}

	before, err := svc.stats()
	if err != nil {
		return err
	}
	bytesBefore := dirBytes(svc.dir)
	alloc := r.startAlloc()
	// Each phase is driven on its own, so its queue drains before the next
	// begins and the reference kernel can be timed on an idle machine.
	outs := make([]queryOutcome, 0, len(queries))
	for start := 0; start < len(queries); {
		end := start
		for end < len(queries) && queries[end].phase == queries[start].phase {
			end++
		}
		outs = append(outs, drive(r.tr, svc, queries[start:end])...)
		r.speed.sample(kernelBurst)
		start = end
	}
	allocPerOp := alloc.perOp(len(queries))
	after, err := svc.stats()
	if err != nil {
		return err
	}

	// Check every answer.
	var cold []int
	for i, q := range queries {
		o := outs[i]
		r.attempted++
		switch {
		case o.refused:
			r.failed++
		case o.err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "gridbench: query %d (%s): %v\n", i, q.class, o.err)
		case q.key >= 0:
			r.checkDigest(r.exp.Serve, keys[q.key].label, digest(string(o.res.VerdictBytes())))
		default:
			cold = append(cold, i)
			checkCold(r, q, o.res, baseline[q.scenario])
		}
	}
	if err := recheckCold(r, scs, queries, outs, cold); err != nil {
		return err
	}

	phases := summarizePhases(r, queries, outs)
	if cfg.trace {
		return traceServe(r, svc, scs, queries, outs, cold, before, after, bytesBefore)
	}
	r.set("setup_s", setupS, "s")
	r.set("alloc_mb_per_op", allocPerOp, "MB")
	ref := phases[serveRefIndex()]
	if len(ref.all) == 0 {
		return fmt.Errorf("no query answered at %d q/s", serveRefRate)
	}
	tail, err := percentile(ref.all, 95)
	if err != nil {
		if !cfg.short {
			return fmt.Errorf("p95 at %d q/s: %w", serveRefRate, err)
		}
		tail = sorted(ref.all)[len(ref.all)-1] // toy runs are too short for a p95
	}
	r.set("latency_ms", median(ref.all), "ms")
	r.set("tail_ms", tail, "ms")
	return nil
}

func serveRefIndex() int {
	for i, rate := range serveRates {
		if rate == serveRefRate {
			return i
		}
	}
	panic("reference rate is not a phase rate")
}

// drive replays the schedule open-loop: each query is sent when due,
// whether or not earlier ones were answered, and its latency runs from its
// due time, so a stall shows in every query that waited behind it. It
// returns once every query has its outcome.
func drive(tr *tracer, svc *service, qs []query) []queryOutcome {
	outs := make([]queryOutcome, len(qs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, q := range qs {
		due := start.Add(q.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := max(0, time.Since(due))
			req := fmt.Sprintf("p%d/q%d", q.phase, i)
			root := tr.begin("query", 0, req)
			o := svc.ask(tr, req, root, q.tenant, q.body)
			tr.end(root, q.class)
			o.latency, o.late = time.Since(due), late
			outs[i] = o
		}()
	}
	wg.Wait()
	return outs
}

// checkCold verifies what can be checked about a cold answer without
// re-solving it: definitive, for the asked target, with the threshold the
// baseline implies.
func checkCold(r *run, q query, res *serve.Result, baseline float64) {
	if !res.Definitive || len(res.Rungs) != 1 {
		r.mismatch("cold target %v: non-definitive or malformed result %+v", q.target, res)
		return
	}
	g := res.Rungs[0]
	if g.TargetPercent != q.target || g.BaselineCost != baseline || g.Threshold != baseline*(1+q.target/100) {
		r.mismatch("cold target %v: rung %+v inconsistent with baseline %v", q.target, g, baseline)
	}
}

// recheckCold re-solves a fixed sample of the cold queries in-process and
// requires the service's verdicts to equal the analyzer's.
func recheckCold(r *run, scs []serveScenario, qs []query, outs []queryOutcome, cold []int) error {
	step := max(1, len(cold)/coldChecks)
	for j := 0; j < len(cold); j += step {
		i := cold[j]
		rep, err := solveDirect(qs[i].body, nil)
		if err != nil {
			return err
		}
		g := outs[i].res.Rungs[0]
		want := verdictPin{Found: g.Found, Exhausted: g.Exhausted, Canceled: g.Canceled, Iterations: g.Iterations,
			BaselineCost: floatBits(g.BaselineCost), AttackedCost: floatBits(g.AttackedCost)}
		if g.Vector != nil {
			want.Vector = digest(g.Vector)
		}
		if got := pinOf(rep); got != want {
			r.mismatch("cold query %d (%s, target %v): service verdict %+v, analyzer %+v", i, scs[qs[i].scenario].label, qs[i].target, want, got)
		}
	}
	return nil
}

// solveDirect runs the analysis a single-target job body asks for, as the
// service's worker would, optionally checkpointed to journal.
func solveDirect(body []byte, journal *string) (*core.Report, error) {
	p, err := serve.ParseJobRequest(body, serve.Limits{})
	if err != nil {
		return nil, err
	}
	a := core.Analyzer{
		Grid: p.In.Grid, Plan: p.In.Plan, Capability: p.Capability(), Verify: p.Mode,
		MaxIterations: p.Req.MaxIterations, BlockPrecision: p.Req.BlockPrecision,
		TargetIncreasePercent: p.Targets[0], Parallelism: 1,
	}
	if journal != nil {
		os.Remove(*journal)
		a.CheckpointPath = *journal
	}
	return a.Run()
}

type phaseSummary struct {
	all     []float64
	byClass map[string][]float64
}

// summarizePhases computes each phase's latency profile, generator
// lateness and SLO verdict, and the highest rate meeting the SLO.
func summarizePhases(r *run, qs []query, outs []queryOutcome) []phaseSummary {
	phases := make([]phaseSummary, len(serveRates))
	failed := make([]int, len(serveRates))
	late := make([][]float64, len(serveRates))
	ordered := make([][]float64, len(serveRates)) // latencies in due order, +Inf for a failure
	for i := range phases {
		phases[i].byClass = map[string][]float64{}
	}
	for i, q := range qs {
		o := outs[i]
		ms := float64(o.latency.Nanoseconds()) / 1e6
		late[q.phase] = append(late[q.phase], float64(o.late.Nanoseconds())/1e6)
		if o.refused || o.err != nil {
			failed[q.phase]++
			ordered[q.phase] = append(ordered[q.phase], math.Inf(1))
			continue
		}
		ph := &phases[q.phase]
		ph.all = append(ph.all, ms)
		ph.byClass[q.class] = append(ph.byClass[q.class], ms)
		ordered[q.phase] = append(ordered[q.phase], ms)
	}
	slo := 0
	for p, rate := range serveRates {
		suffix := fmt.Sprintf(".r%d", rate)
		r.samples["queries"+suffix] = len(ordered[p])
		r.layer("query_p50_ms"+suffix, median(phases[p].all), "ms")
		if p90, err := percentile(phases[p].all, 90); err == nil {
			r.layer("query_p90_ms"+suffix, p90, "ms")
		}
		if p95, err := percentile(phases[p].all, 95); err == nil {
			r.layer("query_p95_ms"+suffix, p95, "ms")
		}
		p99, err := percentile(phases[p].all, 99)
		if err == nil {
			r.layer("query_p99_ms"+suffix, p99, "ms")
		}
		if l, lerr := percentile(late[p], 99); lerr == nil {
			r.layer("loadgen.late_p99_ms"+suffix, l, "ms")
		}
		for class, d := range phases[p].byClass {
			r.layer("query_p50_ms"+suffix+"."+class, median(d), "ms")
		}
		tenth := len(ordered[p]) / 10
		growing := tenth == 0 || median(ordered[p][len(ordered[p])-tenth:]) > 2*median(ordered[p][:tenth])
		if err == nil && p99 <= sloP99ms && failed[p] == 0 && !growing {
			slo = rate
		}
	}
	r.layer("slo_rate_qps", float64(slo), "1/s")
	return phases
}

// traceServe derives the serve layer's counters from the traced traffic,
// re-times request decoding and a sample of cold solves, and runs the
// census for the layers the traffic did not reach.
func traceServe(r *run, svc *service, scs []serveScenario, qs []query, outs []queryOutcome, cold []int, before, after serve.StatsSnapshot, bytesBefore int64) error {
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	r.set("serve.cache_hits", float64(hits), "count")
	r.set("serve.cache_misses", float64(misses), "count")
	if hits+misses > 0 {
		r.set("serve.cache_hit_frac", float64(hits)/float64(hits+misses), "ratio")
	}
	refused := 0
	var waits, solves []float64
	for i, o := range outs {
		if o.refused {
			refused++
		}
		if o.queued && o.err == nil && qs[i].class == "cold" {
			waits = append(waits, float64(o.latency.Nanoseconds())/1e6-float64(o.elapsedMS))
			solves = append(solves, float64(o.elapsedMS))
		}
	}
	r.set("serve.refused", float64(refused), "count")
	r.set("serve.jobs_failed", float64(after.Jobs[serve.JobFailed]), "count")
	if len(cold) > 0 {
		r.set("serve.disk_bytes_per_cold", float64(dirBytes(svc.dir)-bytesBefore)/float64(len(cold)), "bytes")
	}
	r.layer("serve.queue_wait_ms", median(waits), "ms")
	r.layer("serve.solve_ms.cold", median(solves), "ms")
	for _, class := range []string{"hot", "ladder", "cold"} {
		if d := r.tr.durations("query", class); len(d) > 0 {
			r.layer("serve.query_p50_ms."+class, median(d), "ms")
		}
	}
	if d, err := percentile(r.tr.durations("http.await", ""), 99); err == nil {
		r.layer("serve.await_p99_ms.cold", d, "ms")
	}
	submits := map[string][]float64{}
	for _, s := range r.tr.spansNamed("http.post") {
		if q := r.tr.tagOf(s.Parent); q != "" {
			submits[q] = append(submits[q], float64(s.End-s.Start)/1e6)
		}
	}
	for class, d := range submits {
		r.layer("serve.submit_p50_ms."+class, median(d), "ms")
	}

	// Re-time request decoding on every distinct body kind: the ten keys and
	// a sample of cold bodies.
	bodies := map[string]int{}
	for i, q := range qs {
		label := fmt.Sprintf("cold%d", i)
		if q.key >= 0 {
			label = fmt.Sprintf("key%d", q.key)
		}
		if _, ok := bodies[label]; !ok && (q.key >= 0 || len(bodies) < 10+traceColdRuns) {
			bodies[label] = i
		}
	}
	for _, label := range sortedKeys(bodies) {
		q := qs[bodies[label]]
		if _, err := timeParse(r.tr, "retime/"+label, scs[q.scenario].text, q.body); err != nil {
			return err
		}
	}

	// Re-time a sample of cold jobs through the analyzer, with and without
	// the checkpoint journal the service uses.
	journal := filepath.Join(r.cfg.workdir, "census", "cold.journal")
	if err := os.MkdirAll(filepath.Dir(journal), 0o755); err != nil {
		return err
	}
	var reps []*core.Report
	var journalled []float64
	for j := 0; j < len(cold); j += max(1, len(cold)/traceColdRuns) {
		body := qs[cold[j]].body
		rep, err := solveDirect(body, nil)
		if err != nil {
			return err
		}
		jrep, err := solveDirect(body, &journal)
		if err != nil {
			return err
		}
		r.attempted += 2
		reps = append(reps, rep)
		journalled = append(journalled, float64((jrep.Elapsed-rep.Elapsed).Nanoseconds())/1e6)
	}
	if len(reps) > 0 {
		setReportCounts(r, reps)
		r.layer("core.journal_ms", median(journalled), "ms")
	}
	// The census runs on the hot ieee14 scenario, whose search takes more
	// than one iteration.
	census := problem{id: scs[3].label, system: "ieee14", a: scs[3].a}
	return runCensus(r, census)
}
