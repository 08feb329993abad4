package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/lru"
	"kgeval/internal/obs"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
)

// EngineConfig configures an evaluation engine for one host graph.
type EngineConfig struct {
	// Graph is the knowledge graph every job evaluates against. Required.
	Graph *kg.Graph
	// Workers bounds concurrently running jobs (default 2). Each job can
	// additionally parallelize its own scoring via EvalWorkers.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 128); Submit
	// fails fast once the queue is full.
	QueueDepth int
	// CacheSize bounds the fitted-Framework LRU (default 8 entries).
	CacheSize int
	// EvalWorkers is the per-job scoring parallelism (0 = GOMAXPROCS).
	EvalWorkers int
	// MemoryBudget, when > 0, gates admission on the bytes the registry
	// holds plus what the job adds — the snapshots of models the registry
	// does not hold, and the float32 or int8 entity stores the job builds —
	// and is the registry's capacity. Resident models no job named recently
	// are evicted to make room; jobs over budget on their own are rejected
	// with a *MemoryBudgetError instead of being allowed to OOM the process.
	MemoryBudget int64
}

// defaultSeed seeds candidate sampling for jobs that leave Seed 0, and always
// seeds recommender fitting, so cached Frameworks are the same on every
// server.
const defaultSeed = 1

// Settings with one value in every deployment. They are variables only so a
// test can shrink them; an engine reads them when it is built and while it
// runs, so a test sets them before NewEngine and restores them after Close.
var (
	// retainJobs bounds the job index: once exceeded, the oldest terminal
	// jobs are evicted on submission.
	retainJobs = 4096
	// slowJob is the run time beyond which a finished job logs its trace ID
	// and slowest spans at Warn level — the "why was that one slow" record
	// survives in the logs after the engine forgets the job.
	slowJob = 30 * time.Second
	// modelCacheBytes bounds the model registry, the LRU of loaded models
	// jobs share, when no MemoryBudget is set. It is a cache bound, not a
	// limit on what can be evaluated: a job keeps its models for as long as
	// it needs them whatever the registry evicts meanwhile.
	modelCacheBytes int64 = 1 << 30
)

// ErrQueueFull is returned by Submit when the job queue is saturated. The
// HTTP layer maps it to 429 with a Retry-After computed from queue depth
// and recent throughput (Engine.RetryAfter).
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once Drain or Close has begun, and
// ever after: no new work is admitted while running jobs finish (Drain) or
// are canceled (Close), nor once they have. The HTTP layer maps it to 503
// with a Retry-After.
var ErrDraining = errors.New("service: engine draining, not accepting jobs")

// Engine owns a graph, a fitted-Framework cache, a model registry and a
// bounded worker pool, executing evaluation jobs submitted against the graph.
type Engine struct {
	cfg    EngineConfig
	graph  *kg.Graph
	fp     string
	filter *kg.FilterIndex
	// frameworks holds fitted Frameworks, cost 1 each, so CacheSize counts
	// them; see fitFramework.
	frameworks *lru.Cache[fitKey, *core.Framework]
	models     *modelRegistry

	queue       chan *Job
	quit        chan struct{}
	wg          sync.WaitGroup
	reg         *obs.Registry
	metrics     *engineMetrics
	traces      *trace.Store
	completions *completionWindow

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for listing
	nextID   int64
	draining bool // set by Drain or Close; admission never reopens
}

// NewEngine validates the config, builds the filtered-protocol index once,
// and starts the worker pool.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, errors.New("service: EngineConfig.Graph is required")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 8
	}
	registryBytes := modelCacheBytes
	if cfg.MemoryBudget > 0 {
		registryBytes = cfg.MemoryBudget // the registry counts against the budget
	}
	e := &Engine{
		cfg:         cfg,
		graph:       cfg.Graph,
		fp:          core.Fingerprint(cfg.Graph),
		filter:      kg.NewFilterIndex(cfg.Graph.Train, cfg.Graph.Valid, cfg.Graph.Test),
		frameworks:  lru.New[fitKey, *core.Framework](int64(cfg.CacheSize)),
		models:      newModelRegistry(cfg.Graph, registryBytes),
		queue:       make(chan *Job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		jobs:        map[string]*Job{},
		reg:         obs.NewRegistry(),
		traces:      trace.NewStore(0, 0),
		completions: &completionWindow{},
	}
	e.metrics = newEngineMetrics(e.reg, e)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Graph returns the engine's host graph.
func (e *Engine) Graph() *kg.Graph { return e.graph }

// Fingerprint returns the host graph's content fingerprint.
func (e *Engine) Fingerprint() string { return e.fp }

// Metrics returns the registry holding the engine's instruments — mount
// it (together with obs.Default) on a /metrics endpoint.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Accepting reports whether Submit can currently succeed: the engine is
// neither draining nor closed, and the queue has room. This is the
// readiness signal behind GET /readyz.
func (e *Engine) Accepting() bool { return e.unavailable() == nil }

// Draining reports whether a graceful drain is in progress (or the engine
// has been closed).
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Submit validates the spec, registers a job and enqueues it. The job is
// returned in state queued (or, under races, already beyond it).
func (e *Engine) Submit(spec JobSpec) (*Job, error) {
	return e.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with trace continuity: when ctx carries a span (the
// HTTP request span), the job's span becomes its child, so the trace runs
// request → job → evaluation. Without one, the job starts a fresh root
// trace, so every job is traceable regardless of entry point; either way the
// job holds its trace's recorder for as long as the engine retains the job.
// ctx is used only for trace parentage; the job's own lifetime is governed
// by its cancellation, not the (typically short-lived) caller context.
func (e *Engine) SubmitCtx(ctx context.Context, spec JobSpec) (*Job, error) {
	spec = e.withDefaults(spec)
	parsed, err := e.validate(spec)
	if err != nil {
		e.metrics.jobsRejected.Inc()
		return nil, err
	}
	// Shed before the submission costs a hash or touches the registry: an
	// overloaded or draining engine must not have its shared models evicted
	// by work it is turning away. The locked checks below stay the
	// authority; this one only spares the common case.
	if err := e.unavailable(); err != nil {
		e.countRejection(err)
		return nil, err
	}
	// One ingestion path: every model is named by the digest of its bytes
	// from here on, and the job holds registry slots, never the bytes.
	keys := modelKeys(&spec)
	if err := e.admit(spec, keys, parsed.precision); err != nil {
		e.metrics.shed(shedMemoryBudget)
		return nil, err
	}
	refs, err := e.referenceModels(&spec, keys)
	if err != nil {
		e.metrics.jobsRejected.Inc()
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.stoppedLocked(); err != nil {
		e.countRejection(err)
		return nil, err
	}
	e.nextID++
	id := fmt.Sprintf("j%06d", e.nextID)
	span := trace.FromContext(ctx).Child("job")
	if span == nil {
		_, span = e.traces.StartTrace(context.Background(), "job")
	}
	span.SetAttrs(trace.String("job_id", id), trace.String("strategy", spec.Strategy),
		trace.String("split", spec.Split), trace.Int("num_samples", spec.NumSamples))
	j := newJob(id, spec, span)
	j.metrics = e.metrics
	j.models = refs
	j.parsed = parsed
	// Registration and the non-blocking enqueue stay in one critical
	// section so a queue-full rejection never rolls back another
	// goroutine's registration.
	select {
	case e.queue <- j:
	default:
		e.countRejection(ErrQueueFull)
		// Release the rejected job's context so a deadline watcher (if the
		// spec carried a timeout) can never fire an expired transition for a
		// job that was never admitted.
		j.cancel()
		j.span.End(trace.String("state", "rejected"), trace.String("error", ErrQueueFull.Error()))
		return nil, ErrQueueFull
	}
	e.jobs[j.ID] = j
	e.order = append(e.order, j)
	e.metrics.jobsSubmitted.Inc()
	e.pruneLocked()
	return j, nil
}

// stoppedLocked says why the engine admits nothing any more, if it does not.
// Caller holds e.mu.
func (e *Engine) stoppedLocked() error {
	if e.draining {
		return ErrDraining
	}
	return nil
}

// unavailable says why a submission arriving now would be turned away, if
// it would: the engine is draining or closed, or the queue is full.
func (e *Engine) unavailable() error {
	e.mu.Lock()
	err := e.stoppedLocked()
	e.mu.Unlock()
	if err == nil && len(e.queue) == cap(e.queue) {
		err = ErrQueueFull
	}
	return err
}

// countRejection books a submission turned away for err.
func (e *Engine) countRejection(err error) {
	switch err {
	case ErrDraining:
		e.metrics.shed(shedDraining)
	case ErrQueueFull:
		e.metrics.shed(shedQueueFull)
	default:
		e.metrics.jobsRejected.Inc()
	}
}

// pruneLocked evicts the oldest terminal jobs beyond the retention cap, so
// a long-lived server's job index stays bounded. Queued/running jobs are
// never evicted. Caller holds e.mu.
func (e *Engine) pruneLocked() {
	excess := len(e.order) - retainJobs
	if excess <= 0 {
		return
	}
	kept := e.order[:0]
	for _, j := range e.order {
		if excess > 0 && j.State().Terminal() {
			delete(e.jobs, j.ID)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	e.order = kept
}

func (e *Engine) withDefaults(spec JobSpec) JobSpec {
	if spec.Split == "" {
		spec.Split = "test"
	}
	if spec.Strategy == "" {
		spec.Strategy = "P"
	}
	if spec.Recommender == "" {
		spec.Recommender = "L-WD"
	}
	// One name per recommender: an alias ("PIE-Sim") shares the Framework
	// and the status of the name it stands for.
	if rec, err := recommender.ByName(spec.Recommender, defaultSeed); err == nil {
		spec.Recommender = rec.Name()
	}
	if spec.NumSamples <= 0 {
		// The paper's 10% budget; tiny graphs never sample empty pools.
		spec.NumSamples = max(1, e.graph.NumEntities/10)
	}
	// Every sampler takes all it can before it reads the rng, so any n_s ≥ |E|
	// draws the very pools n_s = |E| does: one job, one Framework, and a pool
	// memo charge bounded by the graph instead of by the client.
	spec.NumSamples = min(spec.NumSamples, e.graph.NumEntities)
	if spec.Seed == 0 {
		spec.Seed = defaultSeed
	}
	return spec
}

// validateModelArgs checks the constructor arguments of a model over g: what
// an upload is filed under and what a job loads it with. The model they
// build must have a snapshot no larger than a request may carry, so no
// accepted arguments ask a worker to allocate more than that: a dim bound
// alone bounds neither TuckER's d³ core nor RESCAL's |R|·d² relations.
func validateModelArgs(ms ModelSpec, g *kg.Graph) error {
	if ms.Name == "" {
		return errors.New("model.name is required")
	}
	if ms.Dim <= 0 {
		return errors.New("model.dim must be positive")
	}
	n, err := kgc.SnapshotBytes(ms.Name, g, ms.Dim)
	if err != nil {
		return err
	}
	if n > maxSubmitBytes {
		return fmt.Errorf("a %s model at dim %d is %d bytes, over the %d a request may carry", ms.Name, ms.Dim, n, maxSubmitBytes)
	}
	return nil
}

func validateModelSpec(ms ModelSpec, g *kg.Graph) error {
	if err := validateModelArgs(ms, g); err != nil {
		return err
	}
	switch {
	case len(ms.Snapshot) > 0 && ms.ModelID != "":
		return errors.New("set model.snapshot or model.model_id, not both")
	case len(ms.Snapshot) == 0 && ms.ModelID == "":
		return errors.New("model.snapshot or model.model_id is required")
	}
	return nil
}

// specModels lists the job's models in order: the fleet, or the single
// model as a fleet of one. The elements alias spec.
func specModels(spec *JobSpec) []*ModelSpec {
	if len(spec.Models) == 0 {
		return []*ModelSpec{&spec.Model}
	}
	out := make([]*ModelSpec, len(spec.Models))
	for i := range spec.Models {
		out[i] = &spec.Models[i]
	}
	return out
}

// modelKeys names every model of a validated spec by registry key, hashing
// inline snapshots the HTTP layer has not hashed already, and writes the id
// back as the spec's ModelID. spec.Models is copied first: the caller's
// slice is not the job's to edit.
func modelKeys(spec *JobSpec) []modelKey {
	spec.Models = append([]ModelSpec(nil), spec.Models...)
	models := specModels(spec)
	keys := make([]modelKey, len(models))
	for i, ms := range models {
		if len(ms.Snapshot) > 0 {
			ms.ModelID = ms.digest
			if ms.ModelID == "" {
				ms.ModelID = modelDigest(ms.Snapshot)
			}
		}
		keys[i] = modelKey{ID: ms.ModelID, Name: ms.Name, Dim: ms.Dim, Seed: ms.Seed}
	}
	return keys
}

// referenceModels takes the job's hold on each of its models, registering
// inline snapshots the registry has not seen, and drops the snapshot bytes
// from the spec: past this point a job is its model ids.
func (e *Engine) referenceModels(spec *JobSpec, keys []modelKey) ([]*modelRef, error) {
	refs := make([]*modelRef, len(keys))
	for i, ms := range specModels(spec) {
		ref, err := e.models.reference(keys[i], ms.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("%w: %s", err, keys[i].ID)
		}
		refs[i] = ref
		ms.Snapshot, ms.digest = nil, ""
	}
	return refs, nil
}

// parsedSpec is what validate reads out of a JobSpec's strings; the job
// keeps it, so nothing after submission parses them again.
type parsedSpec struct {
	full      bool          // strategy "full": the exhaustive protocol
	strategy  core.Strategy // the sampling strategy otherwise
	precision store.Precision
}

// maxTimeoutMS is the longest timeout_ms a time.Duration holds: newJob's
// conversion of a larger one would wrap into a deadline that is already past
// or, negative, none at all.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

func (e *Engine) validate(spec JobSpec) (parsedSpec, error) {
	var p parsedSpec
	if len(spec.Models) > 0 {
		if spec.Model.Name != "" || len(spec.Model.Snapshot) > 0 || spec.Model.ModelID != "" {
			return p, errors.New("service: set model or models, not both")
		}
		for i, ms := range spec.Models {
			if err := validateModelSpec(ms, e.graph); err != nil {
				return p, fmt.Errorf("service: models[%d]: %w", i, err)
			}
		}
	} else if err := validateModelSpec(spec.Model, e.graph); err != nil {
		return p, fmt.Errorf("service: %w", err)
	}
	if spec.Split != "test" && spec.Split != "valid" {
		return p, fmt.Errorf("service: unknown split %q (want test or valid)", spec.Split)
	}
	if p.full = spec.Strategy == "full"; !p.full {
		s, err := core.ParseStrategy(spec.Strategy)
		if err != nil {
			return p, fmt.Errorf("service: %w (or \"full\")", err)
		}
		p.strategy = s
		rec, err := recommender.ByName(spec.Recommender, defaultSeed)
		if err != nil {
			return p, err
		}
		// Known now and the same on every attempt: refused here, it queues
		// no job and runs no Fit.
		if rec.NeedsTypes() {
			if err := recommender.RequireTypes(rec.Name(), e.graph); err != nil {
				return p, fmt.Errorf("service: %w", err)
			}
		}
	}
	if spec.MaxQueries < 0 {
		return p, errors.New("service: max_queries must be >= 0")
	}
	if spec.TimeoutMS < 0 || int64(spec.TimeoutMS) > maxTimeoutMS {
		return p, fmt.Errorf("service: timeout_ms must be in [0, %d]", maxTimeoutMS)
	}
	prec, err := store.ParsePrecision(spec.Precision)
	if err != nil {
		return p, fmt.Errorf("service: %w", err)
	}
	p.precision = prec
	return p, nil
}

// Get returns a job by id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.order...)
}

// jobByTrace returns a retained job whose trace has the hex id. The job
// index is the only place a trace is kept, so a trace lives exactly as long
// as its job.
func (e *Engine) jobByTrace(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.order {
		if j.TraceID() == id {
			return j, true
		}
	}
	return nil, false
}

// Close stops accepting jobs (Submit returns ErrDraining from then on),
// cancels everything pending or running, and waits for the workers to exit.
// For a shutdown that lets running jobs finish, use Drain. Close after (or
// during) a Drain, and a second Close, are no-ops.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return
	}
	e.draining = true
	jobs := append([]*Job(nil), e.order...)
	e.mu.Unlock()

	close(e.quit)
	for _, j := range jobs {
		j.Cancel()
	}
	e.wg.Wait()
}

// Drain performs a graceful shutdown: admission stops immediately (Submit
// returns ErrDraining, Accepting — and through it /readyz — reports
// unavailable), queued jobs are canceled with a terminal event telling
// clients the server is draining, and running jobs are given up to timeout
// to finish before being canceled. Drain returns once every worker has
// exited; Submit keeps returning ErrDraining afterwards. Drain after (or
// during) a Close or another Drain is a no-op.
func (e *Engine) Drain(timeout time.Duration) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return
	}
	e.draining = true
	e.mu.Unlock()

	// Shed the queue: these jobs never ran, and with admission stopped no
	// new ones can appear, so this loop and the workers between them empty
	// the channel (each job goes to exactly one of us).
	for {
		select {
		case j := <-e.queue:
			if j.shed("service: canceled by graceful drain before running") {
				e.metrics.jobsDrained.Inc()
			}
			continue
		default:
		}
		break
	}

	// Let workers finish their current job and exit; after timeout, cancel
	// whatever is still running and wait for the cancellation to land.
	close(e.quit)
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		slog.Warn("drain timeout exceeded, canceling running jobs", "timeout", timeout)
		for _, j := range e.Jobs() {
			j.Cancel()
		}
		<-done
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case j := <-e.queue:
			e.run(j)
		}
	}
}

func (e *Engine) run(j *Job) {
	if !j.transition(StateRunning, nil) {
		return // cancelled or expired while queued
	}
	defer e.metrics.workerBusy()()
	// A panic in evaluation (a malformed snapshot driving a model into an
	// impossible state, or an injected chaos fault) must fail the one job,
	// not kill the worker pool. The panic message AND stack go into the
	// job's error status and onto its trace span: "which graph poisoned the
	// worker" must be answerable from GET /v1/jobs/{id} alone.
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			j.span.Event("panic", trace.String("error", fmt.Sprint(r)),
				trace.String("stack", string(stack)))
			j.fail(fmt.Errorf("service: evaluation panicked: %v\n\n%s", r, stack))
		}
	}()
	// Chaos hook: an armed service/worker site can stall (deadline drills),
	// fail or panic the job right where evaluation would start. A stall cut
	// short by cancellation or the deadline returns the context's error: the
	// job is being settled by whoever ended its context, and must not go on
	// to load its models.
	if err := faults.HitCtx(j.ctx, faults.SiteWorker); err != nil {
		if j.ctx.Err() == nil {
			j.fail(fmt.Errorf("service: worker fault: %w", err))
		}
		e.logSlowJob(j)
		return
	}
	results, cacheHit, err := e.execute(j)
	switch {
	case j.ctx.Err() != nil:
		// Cancellation or deadline already finalized the state (Cancel flips
		// canceled, the deadline watcher flips expired); nothing to record.
	case err != nil:
		j.fail(err)
	default:
		j.succeed(results, cacheHit)
	}
	e.logSlowJob(j)
}

// slowJobLogSpans bounds how many spans logSlowJob serializes. A trace's
// ring holds up to 4096 records with attrs and events; dumping all of them
// would put a multi-megabyte line in the log. The slowest few answer "where
// did the time go" — the full tree stays readable at /v1/jobs/{id}/trace
// while the engine retains the job.
const slowJobLogSpans = 16

// logSlowJob logs a bounded diagnosis record for a job whose run time
// exceeded slowJob: trace ID, span count, and the slowest spans — enough to
// outlive the job index's eviction without multi-megabyte log lines.
func (e *Engine) logSlowJob(j *Job) {
	j.mu.Lock()
	elapsed := j.finished.Sub(j.started)
	state := j.state
	j.mu.Unlock()
	if j.started.IsZero() || elapsed <= slowJob {
		return
	}
	attrs := []any{
		"job", j.ID, "state", state,
		"elapsed", elapsed, "threshold", slowJob,
	}
	if rec := j.span.Recorder(); rec != nil {
		tr := rec.Snapshot()
		attrs = append(attrs, "trace_id", tr.TraceID, "spans", len(tr.Spans),
			"trace_url", "/v1/jobs/"+j.ID+"/trace")
		type spanSummary struct {
			Name string  `json:"name"`
			MS   float64 `json:"ms"`
		}
		spans := tr.Spans
		sort.Slice(spans, func(a, b int) bool { return spans[a].Duration() > spans[b].Duration() })
		if len(spans) > slowJobLogSpans {
			spans = spans[:slowJobLogSpans]
		}
		slowest := make([]spanSummary, len(spans))
		for i, s := range spans {
			slowest[i] = spanSummary{Name: s.Name, MS: float64(s.Duration()) / float64(time.Millisecond)}
		}
		if buf, err := json.Marshal(slowest); err == nil {
			attrs = append(attrs, "slowest_spans", string(buf))
		}
	}
	slog.Warn("slow job", attrs...)
}

// execute performs the evaluation work of one job: resolve the model(s) in
// the registry, resolve (or fit) the framework, and run the protocol.
// Single- and multi-model jobs share one path — a single model is a fleet of
// one — so multi-model jobs get the shared-pool evaluation (EstimateMany)
// for free.
func (e *Engine) execute(j *Job) ([]eval.Result, bool, error) {
	spec := j.Spec
	j.mu.Lock()
	refs := j.models
	j.mu.Unlock()
	// Settled, or being settled, since the worker's claim: Cancel and the
	// deadline end the context before the terminal transition drops refs,
	// and a terminal transition ends it too.
	if err := j.ctx.Err(); err != nil {
		return nil, false, err
	}

	stages := jobStages{modelHit: true}
	loadStart := time.Now()
	models := make([]kgc.Model, len(refs))
	for i, ref := range refs {
		m, hit, err := e.models.load(j.ctx, ref)
		if err != nil {
			return nil, false, err
		}
		models[i] = m
		stages.modelHit = stages.modelHit && hit
	}
	stages.load = time.Since(loadStart)
	j.setStages(stages)

	split := e.graph.Test
	if spec.Split == "valid" {
		split = e.graph.Valid
	}
	opts := eval.Options{
		Filter:     e.filter,
		Workers:    e.cfg.EvalWorkers,
		MaxQueries: spec.MaxQueries,
		Seed:       spec.Seed,
		Precision:  j.parsed.precision,
		Ctx:        j.ctx,
		Progress:   j.setProgress,
	}

	if j.parsed.full {
		return eval.EvaluateMany(models, e.graph, split, eval.NewFullProvider(e.graph.NumEntities), opts), false, nil
	}

	fitStart := time.Now()
	fw, cacheHit, err := e.fitFramework(j, spec)
	stages.fit = time.Since(fitStart)
	j.setStages(stages)
	if err != nil {
		return nil, cacheHit, err
	}
	return fw.EstimateMany(models, e.graph, split, j.parsed.strategy, opts), cacheHit, nil
}

// fitKey identifies a fitted Framework on the engine's graph: the
// recommender and the candidate budget n_s. Jobs that agree on both share
// one Fit.
type fitKey struct {
	Recommender string
	NumSamples  int
}

// fitFramework resolves (or builds) the fitted framework for a job in the
// engine's single-flight cache: concurrent jobs with one key run one build,
// the others wait for it and count as hits, and the outcome (hit, miss or
// single-flight join) lands on the job's span as a cache.* event. A failed
// build — a panic included, which the cache turns into an error carrying the
// stack — fails its job and every job that joined it. The cache keeps no
// failure, so the next job naming the key fits again. Only the job that ran
// the build counts the failure; the build runs detached from that job's
// context (buildFramework), so every failure it returns is the Fit's own.
func (e *Engine) fitFramework(j *Job, spec JobSpec) (*core.Framework, bool, error) {
	key := fitKey{Recommender: spec.Recommender, NumSamples: spec.NumSamples}
	fw, o, err := e.frameworks.Resolve(e.frameworks.Reserve(key, 1, nil),
		func(o lru.Outcome) {
			trace.FromContext(j.ctx).Event("cache."+o.String(), trace.String("recommender", key.Recommender))
		},
		func(*core.Framework) (*core.Framework, error) { return e.buildFramework(j, spec) })
	if err != nil && o == lru.Miss {
		e.metrics.fitFailures.Inc()
	}
	return fw, o != lru.Miss, panicked("fit", err)
}

// buildFramework is the cache's build function: fit the recommender. A
// panic inside Fit (a poison graph) reaches the caller as the cache's
// *lru.PanicError and fails the job like any other error instead of killing
// the worker.
//
// The build serves every job that joins it, so it runs detached from the
// cancellation and deadline of the job that started it (its trace stays):
// that job's end must not fail the joiners with its context's error. The job
// itself still ends when its context does; only its worker waits for the
// build.
func (e *Engine) buildFramework(j *Job, spec JobSpec) (*core.Framework, error) {
	ctx := context.WithoutCancel(j.ctx)
	if err := faults.HitCtx(ctx, faults.SiteFit); err != nil {
		return nil, err
	}
	rec, err := recommender.ByName(spec.Recommender, defaultSeed)
	if err != nil {
		return nil, err
	}
	fw := core.New(rec, spec.NumSamples, defaultSeed)
	if err := fw.FitCtx(ctx, e.graph); err != nil {
		return nil, err
	}
	return fw, nil
}

// panicked names what was being built when a build's panic became err; any
// other error passes through as it is.
func panicked(what string, err error) error {
	if _, ok := err.(*lru.PanicError); ok {
		return fmt.Errorf("service: %s %w", what, err)
	}
	return err
}

// EngineStats aggregates engine-level counters for the stats endpoint.
type EngineStats struct {
	Jobs     map[State]int `json:"jobs"`
	QueueLen int           `json:"queue_len"`
	QueueCap int           `json:"queue_cap"`
	Workers  int           `json:"workers"`
	Cache    CacheStats    `json:"cache"`
	// Models is the model registry's traffic and occupancy.
	Models    ModelCacheStats `json:"models"`
	GraphName string          `json:"graph"`
	GraphFP   string          `json:"graph_fingerprint"`
	// Draining reports a graceful drain in progress (or a closed engine).
	Draining bool `json:"draining,omitempty"`
}

// CacheStats reports the fitted-Framework cache's cumulative traffic and
// current occupancy. Hits counts every fit served by an existing entry;
// SingleFlight is the subset of hits that joined a build still in flight (a
// deduplicated Fit).
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	SingleFlight int64 `json:"singleflight"`
	InFlight     int64 `json:"inflight"`
	Size         int   `json:"size"`
	Cap          int   `json:"cap"`
}

func (e *Engine) cacheStats() CacheStats {
	s := e.frameworks.Stats()
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		SingleFlight: s.Joins, InFlight: s.InFlight,
		Size: s.Entries, Cap: int(s.Cap),
	}
}

// Stats snapshots job counts by state, queue occupancy and cache traffic.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	jobs := append([]*Job(nil), e.order...)
	e.mu.Unlock()
	st := EngineStats{
		Jobs:      map[State]int{},
		QueueLen:  len(e.queue),
		QueueCap:  cap(e.queue),
		Workers:   e.cfg.Workers,
		Cache:     e.cacheStats(),
		Models:    e.models.stats(),
		GraphName: e.graph.Name,
		GraphFP:   e.fp,
		Draining:  e.Draining(),
	}
	for _, j := range jobs {
		st.Jobs[j.State()]++
	}
	return st
}
