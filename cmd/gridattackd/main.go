// Command gridattackd serves the paper's impact-analysis framework as a
// long-running multi-tenant daemon: POST an analysis problem (the Table
// II/III text format wrapped in JSON), poll or stream its progress, and
// fetch the verdict. Identical problems are answered from a
// content-addressed result cache; per-tenant QoS tiers bound both admission
// rate and solver effort. With -journal-dir the daemon is durable: killing
// it mid-solve and restarting resumes every in-flight job from its
// checkpoint journal with verdicts bit-identical to an uninterrupted run,
// and finalized jobs are never solved twice.
//
// Usage:
//
//	gridattackd [-addr 127.0.0.1:8080] [-journal-dir DIR] [-workers N]
//	            [-queue-depth N] [-cache-entries N] [-tiers tiers.json]
//	            [-max-request-bytes N]
//
// API (v1):
//
//	POST /v1/jobs                submit a job (JSON body; X-Tenant header)
//	GET  /v1/jobs/{id}           job status snapshot
//	GET  /v1/jobs/{id}/result    verdict (200 done, 422 failed, 202 pending)
//	GET  /v1/jobs/{id}/events    server-sent progress event stream
//	GET  /v1/stats               cache, tenant, queue counters
//	GET  /healthz                liveness
//
// The -tiers file maps tenant names to QoS classes:
//
//	{
//	  "default": {"name": "standard", "rate": 10, "burst": 20},
//	  "tenants": {
//	    "acme": {"name": "pro", "rate": 100, "burst": 200},
//	    "guest": {"name": "free", "rate": 1, "burst": 3,
//	              "query_timeout": "30s", "max_conflicts": 500000}
//	  }
//	}
//
// SIGINT/SIGTERM shut down gracefully: intake stops, in-flight jobs finish.
// SIGKILL is the crash case the journal exists for.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridattack/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridattackd:", err)
		os.Exit(1)
	}
}

// tierSpec is the tiers-file form of serve.Tier: the query timeout is a
// human duration string ("30s"), not nanoseconds.
type tierSpec struct {
	Name         string  `json:"name"`
	Rate         float64 `json:"rate"`
	Burst        float64 `json:"burst"`
	MaxConflicts int64   `json:"max_conflicts"`
	MaxPivots    int64   `json:"max_pivots"`
	QueryTimeout string  `json:"query_timeout"`
	// Parallelism is ignored: every analysis runs one sequential loop.
	// Tier files that name it still load.
	Parallelism int `json:"parallelism"`
}

func (ts tierSpec) tier() (serve.Tier, error) {
	t := serve.Tier{
		Name: ts.Name, Rate: ts.Rate, Burst: ts.Burst,
		MaxConflicts: ts.MaxConflicts, MaxPivots: ts.MaxPivots,
	}
	if ts.QueryTimeout != "" {
		d, err := time.ParseDuration(ts.QueryTimeout)
		if err != nil {
			return t, fmt.Errorf("tier %q: query_timeout: %w", ts.Name, err)
		}
		t.QueryTimeout = d
	}
	return t, nil
}

// loadTiers reads the tiers file into a default tier and a tenant map.
func loadTiers(path string) (serve.Tier, map[string]serve.Tier, error) {
	var file struct {
		Default tierSpec            `json:"default"`
		Tenants map[string]tierSpec `json:"tenants"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return serve.Tier{}, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return serve.Tier{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	def, err := file.Default.tier()
	if err != nil {
		return serve.Tier{}, nil, err
	}
	tiers := make(map[string]serve.Tier, len(file.Tenants))
	for name, spec := range file.Tenants {
		t, err := spec.tier()
		if err != nil {
			return serve.Tier{}, nil, err
		}
		tiers[name] = t
	}
	return def, tiers, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridattackd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		journalDir   = fs.String("journal-dir", "", "durable state directory: request records, checkpoint journals, results; enables kill-and-restart recovery")
		workers      = fs.Int("workers", 0, "queue shards / worker goroutines (0 = all CPUs)")
		queueDepth   = fs.Int("queue-depth", 0, "per-shard backlog before submissions are refused with 503 (0 = 64)")
		cacheEntries = fs.Int("cache-entries", 0, "result cache capacity (0 = 4096)")
		tiersPath    = fs.String("tiers", "", "JSON file mapping tenant names to QoS tiers")
		maxBytes     = fs.Int("max-request-bytes", 0, "largest accepted request body (0 = 4 MiB)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "gridattackd: ", log.LstdFlags)

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		JournalDir:   *journalDir,
		Limits:       serve.Limits{MaxRequestBytes: *maxBytes},
		Logf:         logger.Printf,
	}
	if *tiersPath != "" {
		def, tiers, err := loadTiers(*tiersPath)
		if err != nil {
			return err
		}
		cfg.DefaultTier, cfg.Tiers = def, tiers
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	reloaded, resumed, err := s.Recover()
	if err != nil {
		return err
	}
	if reloaded > 0 || resumed > 0 {
		logger.Printf("recovered: %d results reloaded, %d jobs resumed", reloaded, resumed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The listening line goes to stdout unbuffered so supervisors (and the
	// kill-and-restart test) can read the bound address under port 0.
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		sig := <-sigCh
		logger.Printf("received %s, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()

	err = hs.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if serr := <-shutdownErr; serr != nil {
		logger.Printf("shutdown: %v", serr)
	}
	s.Close() // drain in-flight jobs so their journals finalize
	logger.Printf("stopped")
	return nil
}
