// Package service turns the kgeval library into a long-lived evaluation
// system: the paper's argument is that a fitted recommender plus 2·|R|
// candidate samplings makes link-predictor evaluation cheap enough to run
// constantly, which pays off only when evaluations can be submitted, queued
// and served behind one API instead of one-shot CLI runs.
//
// The package provides four layers:
//
//	Job              a queued evaluation request — one model or a fleet
//	                 evaluated over shared pools — with observable state
//	                 transitions, incremental progress and cancellation;
//	framework cache  an LRU of fitted core.Frameworks keyed by recommender
//	                 + n_s on the engine's one graph, so Fit cost is paid
//	                 once and amortized across requests;
//	model registry   a byte-bounded LRU of loaded, immutable models keyed by
//	                 the SHA-256 of their kgc.Save bytes (Engine.PutModel,
//	                 PUT /v1/models, or an inline snapshot), so a model is
//	                 parsed once and shared by every job that names it;
//	Engine           a bounded worker pool executing jobs against a host
//	                 graph, with per-job context cancellation.
//
// Both caches, and the pool memo inside every cached Framework, are the
// three instances of the tree's one cost-bounded single-flight LRU
// (internal/lru).
//
// NewServer wraps an Engine in an HTTP/JSON API (job submission, status,
// SSE progress streaming, cancellation); cmd/kgevald is the binary.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"kgeval/internal/eval"
	"kgeval/internal/obs/trace"
)

// State is a job's lifecycle phase. Valid transitions:
//
//	queued → running → succeeded | failed | canceled | expired
//	queued → canceled            (cancelled before a worker picked it up)
//	queued → expired             (deadline passed while still waiting)
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
	// StateExpired is the terminal state of a job whose deadline
	// (JobSpec.TimeoutMS) passed — whether it was
	// still queued or already running. The deadline covers the job's whole
	// lifetime: queue wait, framework Fit, and evaluation.
	StateExpired State = "expired"
)

// Terminal reports whether no further transitions can occur.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled || s == StateExpired
}

// ModelSpec names one model to evaluate: the constructor arguments
// Name/Dim/Seed it was saved under (kgc.Load requires a matching
// architecture) and its bytes in the kgc.Save wire format — either by
// reference, as the ModelID a previous upload under the same arguments
// (PUT /v1/models, Engine.PutModel) or submission returned, or inline as
// Snapshot, which encoding/json transports as base64. Exactly one of the
// two is set. An inline snapshot is registered under the SHA-256 of its
// bytes on the way in, so it is the same as uploading it and naming the
// id; the accepted job's Status states that id.
type ModelSpec struct {
	Name     string `json:"name"`
	Dim      int    `json:"dim"`
	Seed     int64  `json:"seed,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`
	ModelID  string `json:"model_id,omitempty"`

	// digest is the registry id of Snapshot when the HTTP layer already
	// hashed the bytes while streaming them in; empty means hash at Submit.
	digest string
}

// JobSpec is the submission payload for one evaluation.
type JobSpec struct {
	// Model is the single snapshot to evaluate. Mutually exclusive with
	// Models.
	Model ModelSpec `json:"model"`
	// Models, when non-empty, evaluates several snapshots in one pass over
	// shared candidate pools (core.Framework.EstimateMany): pools are drawn
	// once and every model is ranked on identical ground, amortizing the
	// per-pass setup across the fleet — the model-selection workload.
	// Results appear per model in Status.Results, in submission order.
	Models []ModelSpec `json:"models,omitempty"`
	// Split selects the query set: "test" (default) or "valid".
	Split string `json:"split,omitempty"`
	// Strategy is "R", "P" or "S" (core.ParseStrategy), or "full" for the
	// exhaustive filtered protocol the estimates are compared against.
	Strategy string `json:"strategy,omitempty"`
	// Recommender names the relation recommender (recommender.ByName);
	// default L-WD. Ignored for strategy "full".
	Recommender string `json:"recommender,omitempty"`
	// NumSamples is the per-(relation, direction) candidate budget n_s;
	// 0 means max(1, |E|/10), the paper's 10% budget, and anything above |E|
	// means |E|, which is what Status echoes.
	NumSamples int `json:"num_samples,omitempty"`
	// MaxQueries bounds the evaluated triples (0 = whole split).
	MaxQueries int `json:"max_queries,omitempty"`
	// Seed drives candidate sampling; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// Precision selects the embedding-store precision candidates are scored
	// at: "float64" (default), "float32" or "int8" (store.ParsePrecision).
	// Reduced precisions score from a converted copy of the entity table,
	// built next to the float64 weights (so it costs memory, which the
	// memory budget charges), at a bounded MRR deviation.
	Precision string `json:"precision,omitempty"`
	// TimeoutMS is the job's end-to-end deadline in milliseconds, counted
	// from submission and covering queue wait, framework Fit and
	// evaluation; 0 means no deadline. A job whose deadline passes reaches
	// the terminal state "expired" — immediately if still queued, at the
	// next cancellation point if running.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Progress is a monotone completion counter over the job's query triples.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Event is one element of a job's progress stream.
type Event struct {
	Type     string    `json:"type"` // "state" or "progress"
	State    State     `json:"state"`
	Progress *Progress `json:"progress,omitempty"`
}

// Job is one queued evaluation. All exported access is through snapshot and
// subscription methods; fields are guarded by mu.
type Job struct {
	ID   string
	Spec JobSpec
	// parsed holds the typed values of Spec's strings, set at submission.
	parsed parsedSpec

	ctx    context.Context
	cancel context.CancelFunc

	// metrics, when set (jobs born in an engine), receives state-transition
	// latency observations; nil-safe otherwise.
	metrics *engineMetrics

	// span is the job's trace span (child of the submitting request's span,
	// or a trace root), carried by ctx into the evaluation; transition
	// records the queued wait under it as queue_wait. It is nil-safe, so jobs
	// created without tracing (unit tests) behave identically.
	span *trace.Span

	mu       sync.Mutex
	state    State
	progress Progress
	result   []eval.Result // one per model, in spec order, once succeeded
	errMsg   string
	cacheHit bool
	// models are the job's holds on its registered models, in spec order,
	// from submission until the job is terminal; the job never holds
	// snapshot bytes itself.
	models []*modelRef
	// stages is the split of the run outside evaluation, stated once the
	// worker knows it.
	stages   jobStages
	created  time.Time
	started  time.Time
	finished time.Time
	subs     map[chan Event]struct{}
}

// newJob builds a queued job. span, when non-nil, becomes the job's trace
// span: the job context carries it (NOT the submitting request's context —
// the job must survive the HTTP request that created it), so the evaluation
// pipeline parents its spans under the job.
//
// A positive Spec.TimeoutMS puts a deadline on the job context — the same
// context queue wait, Fit and evaluation observe — and arms a watcher that
// flips the job to expired the moment the deadline passes, so even a job no
// worker ever picks up reaches a terminal state (and its SSE subscribers a
// terminal event) on time.
func newJob(id string, spec JobSpec, span *trace.Span) *Job {
	base := trace.ContextWith(context.Background(), span)
	var ctx context.Context
	var cancel context.CancelFunc
	timeout := time.Duration(spec.TimeoutMS) * time.Millisecond
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j := &Job{
		ID:      id,
		Spec:    spec,
		ctx:     ctx,
		cancel:  cancel,
		span:    span,
		state:   StateQueued,
		created: time.Now(),
		subs:    map[chan Event]struct{}{},
	}
	if timeout > 0 {
		// AfterFunc also runs when the job finishes (terminal transitions
		// cancel the context to release this watcher); only a deadline-caused
		// Done expires the job, and expire on an already-terminal job is a
		// no-op.
		context.AfterFunc(ctx, func() {
			if context.Cause(ctx) == context.DeadlineExceeded {
				j.expire()
			}
		})
	}
	return j
}

// TraceID returns the hex trace ID of the job's trace, or "" when untraced.
func (j *Job) TraceID() string { return j.span.TraceID() }

// transition moves the job to next if the move is legal, returning whether
// it happened. The optional onApply runs under the job lock, atomically with
// the state change (used to attach results/errors). Terminal states close
// every subscriber channel, after which subscribers read the final state via
// Status.
func (j *Job) transition(next State, onApply func()) bool {
	j.mu.Lock()
	if !validTransition(j.state, next) {
		j.mu.Unlock()
		return false
	}
	j.state = next
	switch {
	case next == StateRunning:
		j.started = time.Now()
	case next.Terminal():
		j.finished = time.Now()
	}
	if onApply != nil {
		onApply()
	}
	// The queue_wait span is the wait Status and the queue-wait histogram
	// report, on the same two clock readings: created to started, or to
	// finished for a job cancelled while queued.
	switch {
	case next == StateRunning:
		j.span.ChildRecord("queue_wait", j.created, j.started)
	case next.Terminal():
		if j.started.IsZero() {
			j.span.ChildRecord("queue_wait", j.created, j.finished)
		}
		j.span.End(trace.String("state", string(next)), trace.Bool("cache_hit", j.cacheHit),
			trace.Bool("model_cache_hit", j.stages.modelHit))
		// A terminal job stays in the index for a while; it must not pin its
		// models there.
		j.models = nil
		// Release the context: frees the deadline timer/watcher of jobs with
		// a timeout and makes ctx.Err() a reliable "job is settled" signal.
		// AfterFunc watchers run on their own goroutine, so cancelling under
		// j.mu cannot deadlock with expire().
		j.cancel()
	}
	j.metrics.observeTransition(next, j)
	j.publishLocked(Event{Type: "state", State: next})
	if next.Terminal() {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = map[chan Event]struct{}{}
	}
	j.mu.Unlock()
	return true
}

func validTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCanceled || to == StateExpired
	case StateRunning:
		return to.Terminal()
	}
	return false
}

// Cancel requests cancellation. The job's state flips to canceled
// immediately (whether queued or running) and its context is cancelled so an
// in-flight Evaluate stops at the next query boundary; the worker's later
// succeed/fail attempt becomes a no-op. Cancelling a terminal job has no
// effect. Returns whether the state changed.
func (j *Job) Cancel() bool {
	j.cancel()
	return j.transition(StateCanceled, nil)
}

// setProgress records done/total and publishes a progress event. Safe for
// concurrent calls (it is the eval.Options.Progress hook). Publishes are
// coalesced to ~0.5% steps (always including completion), so a large split
// doesn't fan out one event — and one Status marshal per SSE subscriber —
// per evaluated triple.
func (j *Job) setProgress(done, total int) {
	step := total / 200
	if step < 1 {
		step = 1
	}
	j.mu.Lock()
	if (done > j.progress.Done || total != j.progress.Total) &&
		(done == total || done-j.progress.Done >= step) {
		j.progress = Progress{Done: done, Total: total}
		p := j.progress
		j.publishLocked(Event{Type: "progress", State: j.state, Progress: &p})
	}
	j.mu.Unlock()
}

// jobStages says where a job's run time went before evaluation: resolving
// its models in the registry (parsing them on a miss, waiting on a join) and
// resolving its fitted framework in the cache (Fit on a miss).
type jobStages struct {
	modelHit bool // no model of the job was parsed by the job itself
	load     time.Duration
	fit      time.Duration
}

// setStages records the pre-evaluation split; it shows in Status from then
// on, whatever state the job ends in.
func (j *Job) setStages(st jobStages) {
	j.mu.Lock()
	j.stages = st
	j.mu.Unlock()
}

// succeed finalizes a job with one result per model, in spec order.
func (j *Job) succeed(res []eval.Result, cacheHit bool) bool {
	return j.transition(StateSucceeded, func() {
		j.result = res
		j.cacheHit = cacheHit
	})
}

func (j *Job) fail(err error) bool {
	return j.transition(StateFailed, func() { j.errMsg = err.Error() })
}

// expire finalizes a job whose deadline passed, whether it was queued or
// running. The context is already Done (the deadline fired it), so an
// in-flight evaluation stops at its next cancellation point.
func (j *Job) expire() bool {
	return j.transition(StateExpired, func() {
		j.errMsg = fmt.Sprintf("service: job deadline exceeded (timeout_ms=%d)", j.Spec.TimeoutMS)
	})
}

// shed cancels a queued job administratively (graceful drain), recording
// reason as the job error so clients learn why it never ran. Subscribers
// get the terminal state event and stream close like any other terminal
// transition.
func (j *Job) shed(reason string) bool {
	j.cancel()
	return j.transition(StateCanceled, func() { j.errMsg = reason })
}

// publishLocked fans an event out to subscribers without blocking: a
// subscriber whose buffer is full loses intermediate progress events, never
// the terminal state (terminal delivery is by channel close + Status).
func (j *Job) publishLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers a progress listener. The returned channel is closed
// when the job reaches a terminal state (immediately, if it already has);
// cancel the subscription with the returned func. Intermediate progress
// events may be dropped under backpressure, but Done values are monotone.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// ResultStatus is the JSON form of an evaluation result.
type ResultStatus struct {
	MRR              float64 `json:"mrr"`
	Hits1            float64 `json:"hits1"`
	Hits3            float64 `json:"hits3"`
	Hits10           float64 `json:"hits10"`
	MR               float64 `json:"mr"`
	Queries          int     `json:"queries"`
	CandidatesScored int64   `json:"candidates_scored"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

// ModelResult pairs one model's name with its metrics in a multi-model job.
type ModelResult struct {
	Model string `json:"model"`
	ResultStatus
}

func resultStatus(r eval.Result) ResultStatus {
	return ResultStatus{
		MRR: r.MRR, Hits1: r.Hits1, Hits3: r.Hits3, Hits10: r.Hits10,
		MR: r.MR, Queries: r.Queries,
		CandidatesScored: r.CandidatesScored,
		ElapsedMS:        float64(r.Elapsed) / float64(time.Millisecond),
	}
}

// Status is a point-in-time snapshot of a job, also the API's JSON shape.
// Single-model jobs populate Model and Result; multi-model jobs populate
// Models and, once succeeded, Results (one entry per model, in submission
// order).
type Status struct {
	ID          string   `json:"id"`
	State       State    `json:"state"`
	Model       string   `json:"model,omitempty"`
	Models      []string `json:"models,omitempty"`
	Split       string   `json:"split"`
	Strategy    string   `json:"strategy"`
	Recommender string   `json:"recommender,omitempty"`
	NumSamples  int      `json:"num_samples,omitempty"`
	Precision   string   `json:"precision,omitempty"`
	// TimeoutMS echoes the job's deadline; 0 = no deadline.
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	CacheHit  bool `json:"cache_hit"`
	// ModelID (ModelIDs for a fleet) is the registry id of each model the
	// job evaluates — the SHA-256 of its kgc.Save bytes, whether they
	// arrived inline or were named by id. Later jobs can name it instead of
	// sending the bytes again.
	ModelID  string   `json:"model_id,omitempty"`
	ModelIDs []string `json:"model_ids,omitempty"`
	// ModelCacheHit reports that every model of the job came out of the
	// registry already loaded (or being loaded by another job); LoadMS is
	// the run time spent obtaining the models either way, FitMS the time
	// spent obtaining the fitted framework (see CacheHit). What remains of
	// started_at → finished_at is the evaluation itself. Each is stated once
	// the job has run that far.
	ModelCacheHit bool     `json:"model_cache_hit"`
	LoadMS        float64  `json:"load_ms,omitempty"`
	FitMS         float64  `json:"fit_ms,omitempty"`
	Progress      Progress `json:"progress"`
	// ThroughputTPS and ETAMS enrich progress snapshots of running jobs:
	// evaluated triples per second since the job started, and the linear
	// extrapolation of the time remaining. Zero until the first progress.
	ThroughputTPS float64 `json:"throughput_tps,omitempty"`
	ETAMS         float64 `json:"eta_ms,omitempty"`
	// QueueWaitMS is the time the job spent (or, while still queued, has so
	// far spent) waiting for a worker.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// TraceID links the job to its trace at /v1/jobs/{id}/trace.
	TraceID    string        `json:"trace_id,omitempty"`
	Result     *ResultStatus `json:"result,omitempty"`
	Results    []ModelResult `json:"results,omitempty"`
	Error      string        `json:"error,omitempty"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:            j.ID,
		State:         j.state,
		Model:         j.Spec.Model.Name,
		Split:         j.Spec.Split,
		Strategy:      j.Spec.Strategy,
		Recommender:   j.Spec.Recommender,
		NumSamples:    j.Spec.NumSamples,
		Precision:     j.Spec.Precision,
		TimeoutMS:     j.Spec.TimeoutMS,
		CacheHit:      j.cacheHit,
		ModelID:       j.Spec.Model.ModelID,
		ModelCacheHit: j.stages.modelHit,
		LoadMS:        float64(j.stages.load) / float64(time.Millisecond),
		FitMS:         float64(j.stages.fit) / float64(time.Millisecond),
		Progress:      j.progress,
		Error:         j.errMsg,
		CreatedAt:     j.created,
		TraceID:       j.span.TraceID(),
	}
	switch {
	case !j.started.IsZero():
		st.QueueWaitMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
	case j.state == StateQueued:
		st.QueueWaitMS = float64(time.Since(j.created)) / float64(time.Millisecond)
	case !j.finished.IsZero():
		// Cancelled while queued: the wait ended at cancellation.
		st.QueueWaitMS = float64(j.finished.Sub(j.created)) / float64(time.Millisecond)
	}
	for _, ms := range j.Spec.Models {
		st.Models = append(st.Models, ms.Name)
		st.ModelIDs = append(st.ModelIDs, ms.ModelID)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if j.state == StateRunning && j.progress.Done > 0 {
		if elapsed := time.Since(j.started).Seconds(); elapsed > 0 {
			st.ThroughputTPS = float64(j.progress.Done) / elapsed
			st.ETAMS = float64(j.progress.Total-j.progress.Done) / st.ThroughputTPS * 1000
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	switch {
	case j.result == nil:
	case len(j.Spec.Models) == 0:
		rs := resultStatus(j.result[0])
		st.Result = &rs
	default:
		st.Results = make([]ModelResult, len(j.result))
		for i, r := range j.result {
			st.Results[i] = ModelResult{Model: j.Spec.Models[i].Name, ResultStatus: resultStatus(r)}
		}
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (s State) String() string { return string(s) }

var _ fmt.Stringer = StateQueued
