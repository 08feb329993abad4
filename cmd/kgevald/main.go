// Command kgevald serves link-predictor evaluation as a long-lived HTTP
// service: submit serialized model snapshots as jobs, stream their progress,
// and read estimated (or full) filtered ranking metrics back — the paper's
// fast evaluation framework run as a system instead of a one-shot CLI.
//
// The server hosts one knowledge graph (a synthetic preset, or TSV files
// produced by datagen) and amortizes recommender fitting across jobs through
// an LRU cache of fitted frameworks, and model upload and parsing through a
// registry of loaded models keyed by the SHA-256 of their bytes
// (PUT /v1/models, bounded by -mem-budget-mb or 1 GiB; a job names a model by
// model_id, or carries it inline as a base64 snapshot, which is registered
// under the same id on the way in). A job carries either one model
// ({"model": {...}}) or a fleet ({"models": [...]}); fleets are evaluated in
// one relation-grouped pass over shared candidate pools, with per-model
// results in the job output.
//
// Observability: GET /metrics serves the Prometheus text exposition (eval
// stage histograms, job latency histograms, queue, cache and runtime
// counters; scrapers that negotiate OpenMetrics via the Accept header
// additionally get trace-ID exemplars); every submitted job is traced end
// to end through the internal/obs/trace flight recorder — read a job's
// span tree at GET /v1/jobs/{id}/trace (?format=chrome for
// chrome://tracing), or by trace ID — from an exemplar or a log line — at
// GET /debug/traces/{id}, for as long as the job is retained; jobs slower
// than 30 s log their trace ID and slowest spans. -pprof
// additionally mounts net/http/pprof under /debug/pprof/. Logs are
// structured (log/slog); -log-level selects the threshold (debug includes
// per-request access logs). The "serving" line names the scoring lane of
// the process (kernel=avx512, avx2 or go), which every job's eval.pass span
// repeats, and the worker count and framework-cache capacity the engine
// runs with (a -workers or -cache value of 0 is its default, 2 or 8). A
// negative -workers, -eval-workers, -queue, -cache or -mem-budget-mb, or a
// -mem-budget-mb whose bytes do not fit in an int64, exits 2 with the usage
// message before anything starts.
//
// Production hardening (see README "Operations"): jobs carry end-to-end
// deadlines (timeout_ms) and expire terminally when they pass; a full
// queue sheds load with 429 + Retry-After derived
// from recent throughput; -mem-budget-mb gates admission on the resident
// models' snapshot bytes plus what the job adds (its own snapshots and any
// float32/int8 entity store), evicting idle models to make room and
// rejecting with 429 what does not fit on its own;
// SIGTERM drains gracefully — /readyz flips to 503, queued jobs get a
// terminal SSE event, running jobs get up to -drain-timeout to finish; fit
// keys that keep failing are quarantined by a circuit breaker; and -faults
// arms the deterministic chaos-injection registry (testing only). The
// listener binds before the dataset loads, so early probes see an honest
// 503 "starting" instead of connection refused.
//
// Usage:
//
//	kgevald -dataset wikikg2-sim -addr :8080
//	kgevald -data ./data/codexs -workers 4 -cache 16 -pprof -log-level debug
//
// API walkthrough (see README.md for a complete curl session):
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s -T model.kgm 'localhost:8080/v1/models?name=ComplEx&dim=32&seed=1'
//	curl -s -X POST localhost:8080/v1/jobs -d @job.json
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -N localhost:8080/v1/jobs/j000001/stream
//	curl -s localhost:8080/v1/jobs/j000001/trace
//	curl -s localhost:8080/debug/traces/<trace_id>
//	curl -s -X POST localhost:8080/v1/jobs/j000001/cancel
//	curl -s localhost:8080/metrics
//	go tool pprof "localhost:8080/debug/pprof/profile?seconds=10"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs"
	"kgeval/internal/service"
	"kgeval/internal/synth"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "wikikg2-sim", "synthetic dataset preset to host (ignored when -data is set)")
		dataDir     = flag.String("data", "", "directory with train.tsv/valid.tsv/test.tsv (and optional types.tsv), e.g. datagen output")
		workers     = flag.Int("workers", 2, "concurrently running jobs")
		evalWorkers = flag.Int("eval-workers", 0, "scoring goroutines per job (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 128, "queued-job limit")
		cacheSize   = flag.Int("cache", 8, "fitted-framework LRU capacity")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, how long running jobs get to finish before being canceled")
		memBudgetMB  = flag.Int64("mem-budget-mb", 0, "memory budget in MiB for resident models (their snapshot bytes) plus what a job adds (snapshots not yet resident, float32/int8 entity stores), and the model registry's capacity (1024 MiB when 0); idle models are evicted to make room, jobs over budget on their own are rejected with 429 at any precision (0 = no gate)")
		faultSpec    = flag.String("faults", "", "arm deterministic fault injection, e.g. 'service/fit=error,every=2;service/worker=stall,stall=5s' (testing only)")
	)
	flag.Parse()
	if err := checkSizes(*workers, *evalWorkers, *queue, *cacheSize, *memBudgetMB); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), "kgevald:", err)
		flag.Usage()
		os.Exit(2)
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kgevald:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *faultSpec != "" {
		if err := faults.Parse(*faultSpec); err != nil {
			fatal(logger, "parsing -faults", err)
		}
		logger.Warn("fault injection armed", "spec", *faultSpec)
	}

	// Bind the listener before the (potentially slow) dataset load and engine
	// start, so orchestrators probing /readyz get an honest 503 "starting"
	// instead of connection refused — the two mean different things to a
	// rollout controller. The real API handler is swapped in once the engine
	// is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listening", err)
	}
	var apiHandler atomic.Pointer[http.Handler]
	boot := http.Handler(bootstrapHandler())
	apiHandler.Store(&boot)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*apiHandler.Load()).ServeHTTP(w, r)
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var g *kg.Graph
	if *dataDir != "" {
		g, err = loadDir(*dataDir)
		if err != nil {
			fatal(logger, "loading dataset directory", err)
		}
	} else {
		cfg, ok := synth.PresetByName(*dataset)
		if !ok {
			fatal(logger, "resolving dataset", fmt.Errorf("unknown dataset %q", *dataset))
		}
		logger.Info("generating dataset", "preset", *dataset)
		ds, err := synth.Generate(cfg)
		if err != nil {
			fatal(logger, "generating dataset", err)
		}
		g = ds.Graph
	}
	logger.Info("hosting graph",
		"graph", g.Name, "entities", g.NumEntities, "relations", g.NumRelations,
		"train", len(g.Train), "valid", len(g.Valid), "test", len(g.Test))

	defer obs.StartRuntimeSampler(obs.Default)()

	engine, err := service.NewEngine(service.EngineConfig{
		Graph:        g,
		Workers:      *workers,
		EvalWorkers:  *evalWorkers,
		QueueDepth:   *queue,
		CacheSize:    *cacheSize,
		MemoryBudget: *memBudgetMB << 20,
	})
	if err != nil {
		fatal(logger, "starting engine", err)
	}
	defer engine.Close()

	handler := service.NewServer(engine)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	apiHandler.Store(&handler)

	// What runs, not what was asked for: NewEngine replaces a workers or
	// cache value <= 0 with its default.
	st := engine.Stats()
	logger.Info("serving", "addr", ln.Addr().String(), "workers", st.Workers,
		"kernel", kgc.Kernel(), "cache", st.Cache.Cap, "model_cache_mb", st.Models.CapBytes>>20,
		"pprof", *pprofOn, "drain_timeout", *drainTimeout)

	// Graceful shutdown: the first SIGTERM/SIGINT flips /readyz to 503 and
	// stops admission (engine.Drain), queued jobs get a terminal "canceled by
	// drain" event, running jobs get up to -drain-timeout to finish, and only
	// then are the in-flight HTTP responses (including open SSE streams)
	// shut down and the listener closed. A second signal aborts immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serving", err)
		}
	case sig := <-sigCh:
		logger.Info("shutdown signal, draining", "signal", sig.String(), "timeout", *drainTimeout)
		go func() {
			s := <-sigCh
			logger.Warn("second signal, aborting", "signal", s.String())
			os.Exit(1)
		}()
		engine.Drain(*drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		logger.Info("drained, exiting")
	}
}

// checkSizes refuses the size flags the engine would otherwise take in
// silence: a negative count, which NewEngine would replace with its default,
// and a memory budget that is negative or whose MiB overflow an int64 in
// bytes, either of which would turn the memory gate off. 0 keeps meaning the
// default (no gate, for the budget).
func checkSizes(workers, evalWorkers, queue, cache int, memBudgetMB int64) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-workers", workers}, {"-eval-workers", evalWorkers}, {"-queue", queue}, {"-cache", cache}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: may not be negative (0 = default)", f.name, f.v)
		}
	}
	if memBudgetMB < 0 || memBudgetMB > math.MaxInt64>>20 {
		return fmt.Errorf("-mem-budget-mb %d: want 0 (no gate) to %d", memBudgetMB, int64(math.MaxInt64>>20))
	}
	return nil
}

// bootstrapHandler serves while the dataset loads and the engine starts:
// readiness is honestly 503 (the server cannot accept jobs yet) and liveness
// reports "starting", so probes can distinguish a booting daemon from a dead
// one. Everything else is 503 too.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"starting"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"unavailable","reason":"starting"}`)
	})
	return mux
}

// newLogger builds the process logger at the requested threshold.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	return slog.New(h).With("component", "kgevald"), nil
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// loadDir reads a datagen-style dataset directory. Entity/relation/type
// counts are inferred from the maximum ids observed.
func loadDir(dir string) (*kg.Graph, error) {
	read := func(name string) ([]kg.Triple, error) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return kg.ReadTriplesTSV(f)
	}
	train, err := read("train.tsv")
	if err != nil {
		return nil, err
	}
	valid, err := read("valid.tsv")
	if err != nil {
		return nil, err
	}
	test, err := read("test.tsv")
	if err != nil {
		return nil, err
	}
	g := &kg.Graph{Name: filepath.Base(dir), Train: train, Valid: valid, Test: test}
	for _, ts := range [][]kg.Triple{train, valid, test} {
		for _, t := range ts {
			if int(t.H) >= g.NumEntities {
				g.NumEntities = int(t.H) + 1
			}
			if int(t.T) >= g.NumEntities {
				g.NumEntities = int(t.T) + 1
			}
			if int(t.R) >= g.NumRelations {
				g.NumRelations = int(t.R) + 1
			}
		}
	}
	if f, err := os.Open(filepath.Join(dir, "types.tsv")); err == nil {
		defer f.Close()
		types, err := kg.ReadTypesTSV(f, g.NumEntities)
		if err != nil {
			return nil, err
		}
		g.EntityTypes = types
		for _, ts := range types {
			for _, t := range ts {
				if int(t) >= g.NumTypes {
					g.NumTypes = int(t) + 1
				}
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("loading %s: %w", dir, err)
	}
	return g, nil
}
