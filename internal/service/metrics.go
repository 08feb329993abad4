package service

import (
	"kgeval/internal/obs"
)

// Shed reasons label the kgeval_jobs_shed_total counter: admission-control
// rejections that are about capacity, not request validity.
const (
	shedQueueFull    = "queue_full"
	shedMemoryBudget = "memory_budget"
	shedDraining     = "draining"
)

// engineMetrics holds the engine's instruments. Each engine registers in
// a Registry of its own (Engine.Metrics), so multiple engines in one process — the test suite, or a future
// multi-graph daemon — never share counters; obs.Handler merges the
// engine registry with obs.Default (where internal/eval registers) for
// one /metrics exposition. All methods are nil-receiver safe so jobs
// created outside an engine (unit tests) observe nothing.
type engineMetrics struct {
	jobsSubmitted *obs.Counter
	jobsRejected  *obs.Counter
	jobsDone      map[State]*obs.Counter
	jobsShed      map[string]*obs.Counter
	jobsDrained   *obs.Counter
	fitFailures   *obs.Counter
	queueWait     *obs.Histogram
	runSeconds    map[State]*obs.Histogram
	busyWorkers   *obs.Gauge
	// completions feeds the Retry-After estimate with recent terminal
	// timestamps; owned by the engine, observed here on every terminal
	// transition.
	completions *completionWindow
}

func newEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		jobsSubmitted: reg.Counter("kgeval_jobs_submitted_total", "Jobs accepted by Submit."),
		jobsRejected:  reg.Counter("kgeval_jobs_rejected_total", "Jobs rejected at submission (validation failure, queue full, memory budget, draining, engine closed)."),
		jobsDone:      map[State]*obs.Counter{},
		jobsShed:      map[string]*obs.Counter{},
		jobsDrained: reg.Counter("kgeval_jobs_drained_total",
			"Queued jobs canceled with a terminal event by a graceful drain."),
		fitFailures: reg.Counter("kgeval_fit_failures_total",
			"Framework Fit builds that failed or panicked (excludes cancellations)."),
		queueWait: reg.Histogram("kgeval_job_queue_wait_seconds",
			"Time jobs spend queued before a worker picks them up.", obs.DurationBuckets),
		runSeconds:  map[State]*obs.Histogram{},
		busyWorkers: reg.Gauge("kgeval_workers_busy", "Workers currently executing a job."),
		completions: e.completions,
	}
	for _, st := range []State{StateSucceeded, StateFailed, StateCanceled, StateExpired} {
		l := obs.Label{Key: "state", Value: string(st)}
		m.jobsDone[st] = reg.Counter("kgeval_jobs_completed_total", "Jobs finished, by terminal state.", l)
		m.runSeconds[st] = reg.Histogram("kgeval_job_run_seconds",
			"Time from a worker picking a job up to its terminal state.", obs.DurationBuckets, l)
	}
	for _, reason := range []string{shedQueueFull, shedMemoryBudget, shedDraining} {
		m.jobsShed[reason] = reg.Counter("kgeval_jobs_shed_total",
			"Submissions shed by admission control, by reason.",
			obs.Label{Key: "reason", Value: reason})
	}

	reg.GaugeFunc("kgeval_job_queue_depth", "Jobs waiting for a worker.",
		func() float64 { return float64(len(e.queue)) })
	reg.GaugeFunc("kgeval_job_queue_capacity", "Capacity of the job queue.",
		func() float64 { return float64(cap(e.queue)) })
	reg.GaugeFunc("kgeval_workers", "Configured worker count.",
		func() float64 { return float64(e.cfg.Workers) })
	reg.GaugeFunc("kgeval_draining", "1 while the engine is draining (admission stopped), else 0.",
		func() float64 {
			if e.Draining() {
				return 1
			}
			return 0
		})

	cacheStat := func(f func(CacheStats) int64) func() int64 {
		return func() int64 { return f(e.cacheStats()) }
	}
	reg.CounterFunc("kgeval_cache_hits_total", "Framework cache hits (including single-flight joins).",
		cacheStat(func(s CacheStats) int64 { return s.Hits }))
	reg.CounterFunc("kgeval_cache_misses_total", "Framework cache misses (each triggers one Fit).",
		cacheStat(func(s CacheStats) int64 { return s.Misses }))
	reg.CounterFunc("kgeval_cache_evictions_total", "Fitted frameworks evicted by LRU pressure.",
		cacheStat(func(s CacheStats) int64 { return s.Evictions }))
	reg.CounterFunc("kgeval_cache_singleflight_total", "Hits that joined a Fit still in flight (deduplicated builds).",
		cacheStat(func(s CacheStats) int64 { return s.SingleFlight }))
	reg.GaugeFunc("kgeval_cache_inflight", "Framework builds currently running.",
		func() float64 { return float64(e.cacheStats().InFlight) })
	reg.GaugeFunc("kgeval_cache_size", "Fitted frameworks resident in the cache.",
		func() float64 { return float64(e.cacheStats().Size) })

	modelStat := func(f func(ModelCacheStats) int64) func() int64 {
		return func() int64 { return f(e.models.stats()) }
	}
	reg.CounterFunc("kgeval_model_cache_hits_total", "Model loads served by the registry without a parse (including single-flight joins).",
		modelStat(func(s ModelCacheStats) int64 { return s.Hits }))
	reg.CounterFunc("kgeval_model_cache_misses_total", "Model loads that parsed a snapshot (one kgc.Load each).",
		modelStat(func(s ModelCacheStats) int64 { return s.Misses }))
	reg.CounterFunc("kgeval_model_cache_evictions_total", "Models and unused uploads evicted from the registry by its byte bound.",
		modelStat(func(s ModelCacheStats) int64 { return s.Evictions }))
	reg.GaugeFunc("kgeval_model_cache_bytes", "Bytes of models and unused uploads resident in the registry.",
		func() float64 { return float64(e.models.stats().Bytes) })
	return m
}

// observeTransition records per-state latency when a job changes state:
// queued→running observes the queue wait; any terminal transition counts
// the outcome and, if the job ever ran, its run time. Observations carry
// the job's trace ID as an OpenMetrics exemplar, so a spike in the
// histogram links directly to the trace of a job that caused it.
func (m *engineMetrics) observeTransition(next State, j *Job) {
	if m == nil {
		return
	}
	switch {
	case next == StateRunning:
		m.queueWait.ObserveExemplar(j.started.Sub(j.created).Seconds(), j.TraceID())
	case next.Terminal():
		m.jobsDone[next].Inc()
		if !j.started.IsZero() {
			m.runSeconds[next].ObserveExemplar(j.finished.Sub(j.started).Seconds(), j.TraceID())
		}
		m.completions.note(j.finished)
	}
}

// shed counts one admission-control rejection under its reason (and in the
// overall rejected counter).
func (m *engineMetrics) shed(reason string) {
	if m == nil {
		return
	}
	m.jobsRejected.Inc()
	if c, ok := m.jobsShed[reason]; ok {
		c.Inc()
	}
}

// workerBusy brackets one job execution for the utilization gauge.
func (m *engineMetrics) workerBusy() func() {
	if m == nil {
		return func() {}
	}
	m.busyWorkers.Add(1)
	return func() { m.busyWorkers.Add(-1) }
}
