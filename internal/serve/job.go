// Package serve wraps the Fig. 2 impact-analysis framework in a long-running
// multi-tenant HTTP service: a job queue with sharded workers, a
// content-addressed result cache, per-tenant QoS (token-bucket admission plus
// solver budgets mapped onto the analyzer's MaxConflicts/MaxPivots/
// QueryTimeout knobs), journald-backed crash recovery, and streaming progress
// events. See DESIGN.md, "Service layer".
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"gridattack/internal/attack"
	"gridattack/internal/core"
	"gridattack/internal/textio"
)

// ErrRequest reports a malformed or out-of-policy job request. Every
// rejection ParseJobRequest produces wraps it, so transport code can map the
// whole family to one status code.
var ErrRequest = errors.New("serve: invalid job request")

// Limits bound what a single request may ask of the service.
type Limits struct {
	// MaxRequestBytes caps the encoded request size (0 = 4 MiB).
	MaxRequestBytes int
	// MaxBuses caps the parsed grid size (0 = 2000).
	MaxBuses int
	// MaxTargets caps the ladder width (0 = 32).
	MaxTargets int
	// MaxIterations caps the per-job find-verify iteration budget a request
	// may ask for (0 = 1000).
	MaxIterations int
}

// Limit defaults.
const (
	DefaultMaxRequestBytes = 4 << 20
	DefaultMaxBuses        = 2000
	DefaultMaxTargets      = 32
	DefaultMaxIterations   = 1000
)

func (l Limits) fill() Limits {
	if l.MaxRequestBytes <= 0 {
		l.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if l.MaxBuses <= 0 {
		l.MaxBuses = DefaultMaxBuses
	}
	if l.MaxTargets <= 0 {
		l.MaxTargets = DefaultMaxTargets
	}
	if l.MaxIterations <= 0 {
		l.MaxIterations = DefaultMaxIterations
	}
	return l
}

// JobRequest is the wire form of one analysis query.
type JobRequest struct {
	// Input is the problem in the paper's text format (topology,
	// measurements, resource limitation, bus types, generators, loads, cost).
	Input string `json:"input"`
	// Targets are the cost-increase percentages to analyze. One entry is a
	// plain impact query; several are answered as one threshold ladder.
	// Empty selects the input file's own minimum-increase value.
	Targets []float64 `json:"targets,omitempty"`
	// Verify selects the verification backend: "lp" (default), "smt", or
	// "shift".
	Verify string `json:"verify,omitempty"`
	// MaxIterations caps the find-verify loop (0 = the analyzer's 200).
	MaxIterations int `json:"max_iterations,omitempty"`
	// BlockPrecision quantizes blocked vectors (0 = the paper's 0.01 p.u.).
	BlockPrecision float64 `json:"block_precision,omitempty"`
	// States allows UFDI state infection (paper Sec. III-D).
	States bool `json:"states,omitempty"`
	// Certify demands an independently checked certificate for every SMT
	// verdict the job trusts.
	Certify bool `json:"certify,omitempty"`
}

// ParsedJob is a validated request together with its canonical cache key.
type ParsedJob struct {
	Req     JobRequest
	In      *textio.Input
	Mode    core.VerifyMode
	Targets []float64
	// Key is the content address of (canonical problem bytes, verdict-
	// relevant configuration): hex SHA-256, also used as the job ID.
	Key string
	// RecordKey is Key without the targets (core.CacheKeys): the address of
	// the candidate record every target on this problem and configuration
	// shares.
	RecordKey string
}

// Capability returns the attacker capability the job runs under: the input
// file's resource limitation with the request's States toggle applied.
func (p *ParsedJob) Capability() attack.Capability {
	c := p.In.Capability
	c.States = p.Req.States
	return c
}

// ParseJobRequest decodes, validates, and canonicalizes one job request.
// The contract (held against FuzzParseJobRequest): it never panics, every
// rejection wraps ErrRequest, and acceptance is deterministic — the same
// bytes always produce the same cache key.
func ParseJobRequest(data []byte, lim Limits) (*ParsedJob, error) {
	lim = lim.fill()
	if len(data) > lim.MaxRequestBytes {
		return nil, fmt.Errorf("%w: request is %d bytes, limit %d", ErrRequest, len(data), lim.MaxRequestBytes)
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the request object", ErrRequest)
	}
	if strings.TrimSpace(req.Input) == "" {
		return nil, fmt.Errorf("%w: empty input", ErrRequest)
	}

	var mode core.VerifyMode
	switch req.Verify {
	case "", "lp":
		mode = core.VerifyLP
	case "smt":
		mode = core.VerifySMT
	case "shift":
		mode = core.VerifyShift
	default:
		return nil, fmt.Errorf("%w: unknown verify backend %q (want lp, smt, or shift)", ErrRequest, req.Verify)
	}
	if req.MaxIterations < 0 || req.MaxIterations > lim.MaxIterations {
		return nil, fmt.Errorf("%w: max_iterations %d outside 0..%d", ErrRequest, req.MaxIterations, lim.MaxIterations)
	}
	if math.IsNaN(req.BlockPrecision) || math.IsInf(req.BlockPrecision, 0) || req.BlockPrecision < 0 {
		return nil, fmt.Errorf("%w: block_precision must be a finite non-negative number", ErrRequest)
	}
	if len(req.Targets) > lim.MaxTargets {
		return nil, fmt.Errorf("%w: %d targets, limit %d", ErrRequest, len(req.Targets), lim.MaxTargets)
	}
	for _, t := range req.Targets {
		// NaN/Inf cannot arrive through valid JSON, but the decoder is not
		// the only caller path and the analyzer's exact-arithmetic core must
		// never see a non-finite threshold (the faultinject ParseSpec NaN
		// acceptance bug is the cautionary tale) — check explicitly.
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 || t > 10000 {
			return nil, fmt.Errorf("%w: target %v outside (0, 10000]", ErrRequest, t)
		}
	}

	in, err := textio.Parse(strings.NewReader(req.Input))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRequest, err)
	}
	if in.Grid.NumBuses() > lim.MaxBuses {
		return nil, fmt.Errorf("%w: grid has %d buses, limit %d", ErrRequest, in.Grid.NumBuses(), lim.MaxBuses)
	}
	targets := req.Targets
	if len(targets) == 0 {
		t := in.MinIncreasePercent
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= 0 || t > 10000 {
			return nil, fmt.Errorf("%w: input's minimum cost increase %v outside (0, 10000] and no targets given", ErrRequest, t)
		}
		targets = []float64{t}
	}
	if mode == core.VerifyShift && len(targets) > 1 {
		return nil, fmt.Errorf("%w: shift-factor verification does not support ladder queries", ErrRequest)
	}

	p := &ParsedJob{Req: req, In: in, Mode: mode, Targets: targets}
	p.Key, p.RecordKey = core.CacheKeys(in.Grid, in.Plan, p.Capability(), core.KeyConfig{
		Targets:        targets,
		Verify:         mode,
		BlockPrecision: req.BlockPrecision,
		MaxIterations:  req.MaxIterations,
		Certify:        req.Certify,
	})
	return p, nil
}

// RungResult is the verdict for one target percentage. Its fields are the
// verdict-relevant subset of core.Report: bit-identical across cache hits,
// cold re-solves, and journal resumes (timing and effort counters live in
// JobStatus, outside the cached bytes).
type RungResult struct {
	TargetPercent     float64        `json:"target_percent"`
	BaselineCost      float64        `json:"baseline_cost"`
	Threshold         float64        `json:"threshold"`
	Found             bool           `json:"found"`
	Exhausted         bool           `json:"exhausted"`
	Canceled          bool           `json:"canceled"`
	Iterations        int            `json:"iterations"`
	ResumedIterations int            `json:"resumed_iterations,omitempty"`
	Vector            *attack.Vector `json:"vector,omitempty"`
	AttackedCost      float64        `json:"attacked_cost,omitempty"`
}

// Definitive reports whether the rung reached a final verdict (an attack
// found, or the attack space exhausted) rather than running out of budget or
// iterations.
func (r *RungResult) Definitive() bool {
	return !r.Canceled && (r.Found || r.Exhausted)
}

// Result is a completed job's verdict set.
type Result struct {
	Key   string       `json:"key"`
	Rungs []RungResult `json:"rungs"`
	// Definitive mirrors "every rung is definitive": only definitive results
	// enter the cache (see the trust boundary in DESIGN.md).
	Definitive bool `json:"definitive"`
}

// resultFromReports converts per-rung core reports into a Result.
func resultFromReports(key string, targets []float64, reps []*core.Report) *Result {
	res := &Result{Key: key, Definitive: true}
	for i, rep := range reps {
		r := RungResult{
			TargetPercent:     targets[i],
			BaselineCost:      rep.BaselineCost,
			Threshold:         rep.Threshold,
			Found:             rep.Found,
			Exhausted:         rep.Exhausted,
			Canceled:          rep.Canceled,
			Iterations:        rep.Iterations,
			ResumedIterations: rep.ResumedIterations,
			Vector:            rep.Vector,
			AttackedCost:      rep.AttackedCost,
		}
		if !r.Definitive() {
			res.Definitive = false
		}
		res.Rungs = append(res.Rungs, r)
	}
	return res
}

// VerdictBytes renders the verdict-relevant content — everything except
// provenance (ResumedIterations says where iterations came from, not what
// was decided) — canonically, for bit-identity assertions between cached,
// cold, and resumed answers.
func (r *Result) VerdictBytes() []byte {
	type rungVerdict struct {
		TargetPercent float64        `json:"target_percent"`
		BaselineCost  float64        `json:"baseline_cost"`
		Threshold     float64        `json:"threshold"`
		Found         bool           `json:"found"`
		Exhausted     bool           `json:"exhausted"`
		Canceled      bool           `json:"canceled"`
		Iterations    int            `json:"iterations"`
		Vector        *attack.Vector `json:"vector,omitempty"`
		AttackedCost  float64        `json:"attacked_cost,omitempty"`
	}
	vs := make([]rungVerdict, len(r.Rungs))
	for i, rung := range r.Rungs {
		vs[i] = rungVerdict{
			TargetPercent: rung.TargetPercent,
			BaselineCost:  rung.BaselineCost,
			Threshold:     rung.Threshold,
			Found:         rung.Found,
			Exhausted:     rung.Exhausted,
			Canceled:      rung.Canceled,
			Iterations:    rung.Iterations,
			Vector:        rung.Vector,
			AttackedCost:  rung.AttackedCost,
		}
	}
	b, err := json.Marshal(vs)
	if err != nil {
		// Result only ever holds marshalable values; fail loudly if not.
		panic(fmt.Sprintf("serve: verdict marshal: %v", err))
	}
	return b
}
