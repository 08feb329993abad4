package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"kgeval/internal/obs"
	"kgeval/internal/obs/trace"
)

// NewServer wraps an Engine in the kgevald HTTP/JSON API:
//
//	PUT    /v1/models            upload kgc.Save bytes (?name=&dim=&seed=), returns their model_id (201)
//	POST   /v1/jobs              submit a JobSpec, returns the job Status (202)
//	GET    /v1/jobs              list job Statuses in submission order
//	GET    /v1/jobs/{id}         one job's Status
//	GET    /v1/jobs/{id}/trace   the job's trace (?format=chrome for chrome://tracing)
//	GET    /v1/jobs/{id}/stream  Server-Sent Events progress stream
//	POST   /v1/jobs/{id}/cancel  cancel a queued or running job
//	DELETE /v1/jobs/{id}         same as cancel
//	GET    /v1/stats             engine, cache and model-registry counters
//	GET    /metrics              Prometheus text exposition (engine + eval)
//	GET    /healthz              liveness + host graph summary
//	GET    /readyz               readiness (engine open and queue not full)
//	GET    /debug/traces/{id}    a retained job's trace by hex trace ID (?format=chrome)
//
// Every request is access-logged through slog at Debug level (Info for job
// mutations), and POST /v1/jobs starts a trace whose span tree follows the
// job through queue, evaluation plan and per-task scoring chunks. The job
// keeps its trace: both trace routes serve it while the engine retains the
// job, and neither afterwards. A rejected submission's trace is dropped; its
// access-log line keeps the trace_id and status.
//
// The handler is safe for concurrent use; all state lives in the Engine.
func NewServer(e *Engine) http.Handler {
	s := &server{engine: e}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	// The engine's registry carries job/queue/cache instruments; obs.Default
	// carries the eval-layer stage histograms and throughput counters.
	mux.Handle("GET /metrics", obs.Handler(e.Metrics(), obs.Default))
	mux.HandleFunc("PUT /v1/models", s.handlePutModel)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	return s.middleware(mux)
}

type server struct {
	engine *Engine
}

// statusWriter records the response status for the access log. It forwards
// Flush unconditionally — handleStream type-asserts http.Flusher on the
// writer it is handed, so the wrapper must not mask the capability.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps the API mux with request tracing and access logging.
// Job submissions get a root trace (so the span tree runs HTTP request →
// job → evaluation); other endpoints are logged but not traced — a trace
// nothing keeps would be work for no reader.
// Access logs go through slog: scrape/health endpoints at Debug, the rest
// at Info, so `-log-level` chooses how chatty the daemon is.
func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		traceID := ""
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			ctx, span := s.engine.traces.StartTrace(r.Context(), "http "+r.Method+" "+r.URL.Path,
				trace.String("method", r.Method), trace.String("path", r.URL.Path),
				trace.String("remote", r.RemoteAddr))
			if span != nil {
				traceID = span.TraceID()
				defer func() { span.End(trace.Int("status", sw.status)) }()
				r = r.WithContext(ctx)
			}
		}
		next.ServeHTTP(sw, r)

		level := slog.LevelInfo
		if r.Method == http.MethodGet {
			level = slog.LevelDebug
		}
		attrs := []any{
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", time.Since(start),
		}
		if traceID != "" {
			attrs = append(attrs, "trace_id", traceID)
		}
		slog.Default().Log(r.Context(), level, "http request", attrs...)
	})
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// retryAfterSeconds formats a duration as the integral seconds the
// Retry-After header requires, rounding up so clients never come back early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	g := s.engine.Graph()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"graph":       g.Name,
		"entities":    g.NumEntities,
		"relations":   g.NumRelations,
		"fingerprint": s.engine.Fingerprint(),
	})
}

// handleReady is the readiness probe: 200 while the engine accepts jobs,
// 503 once it is draining, closed, or the queue is saturated — the signal a
// load balancer uses to stop routing submissions here. The body names the
// reason so an operator watching a rollout can tell drain from overload.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.engine.Accepting() {
		reason := "queue_full"
		if s.engine.Draining() {
			reason = "draining"
		}
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "unavailable", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

// writeTrace renders a trace snapshot as self-contained JSON, or — with
// ?format=chrome — as a Chrome trace_event document loadable in
// chrome://tracing or https://ui.perfetto.dev.
func writeTrace(w http.ResponseWriter, r *http.Request, tr trace.Trace) {
	if r.URL.Query().Get("format") == "chrome" {
		writeJSON(w, http.StatusOK, tr.Chrome())
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// handleTraceByID serves what handleJobTrace does, found by trace ID: the
// link from a metrics exemplar or a log line to the job's span tree.
func (s *server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.engine.jobByTrace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no retained job has trace %q", id))
		return
	}
	writeTrace(w, r, j.span.Recorder().Snapshot())
}

// handleJobTrace serves the trace of one job — the span tree from HTTP
// submission through queue wait, plan compile, and per-task scoring chunks.
// For running jobs it returns the spans completed so far. Every job the
// engine admits is traced and holds its own flight recorder, so the trace
// lives exactly as long as the job is retained.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeTrace(w, r, j.span.Recorder().Snapshot())
}

// maxSubmitBytes caps a job submission or model upload body (snapshots are
// the bulk; the largest plausible fleet stays far under this) so one
// oversized request cannot exhaust the daemon's memory. A variable so tests
// can shrink it.
var maxSubmitBytes int64 = 256 << 20

// writeBodyError answers a request whose body could not be read: 413 when it
// ran over maxSubmitBytes, 400 with what was wrong otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%s: body exceeds %d bytes", what, tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", what, err))
}

// refuseDeclaredOversize answers 413 to a request whose Content-Length is
// over maxSubmitBytes, on the header, before a byte of the body is read, and
// reports whether it did.
func refuseDeclaredOversize(w http.ResponseWriter, r *http.Request, what string) bool {
	if r.ContentLength <= maxSubmitBytes {
		return false
	}
	writeBodyError(w, what, &http.MaxBytesError{Limit: maxSubmitBytes})
	return true
}

// uploadArgs reads the constructor arguments of PUT /v1/models from its
// query string: name and dim are required, seed defaults to 0 as it does in
// a JobSpec. Anything else is refused, so a misspelt argument cannot file
// the model under a key no job will name.
func uploadArgs(q url.Values) (ms ModelSpec, err error) {
	for k, v := range q {
		switch k {
		case "name":
			ms.Name = v[0]
		case "dim":
			ms.Dim, err = strconv.Atoi(v[0])
		case "seed":
			ms.Seed, err = strconv.ParseInt(v[0], 10, 64)
		default:
			err = fmt.Errorf("unknown query parameter %q (want name, dim, seed)", k)
		}
		if err != nil {
			return ms, fmt.Errorf("service: %w", err)
		}
	}
	return ms, nil
}

// handlePutModel registers raw kgc.Save bytes — no JSON, no base64 — ahead
// of the jobs that will evaluate them, streaming the body through the
// hasher straight into the registry's buffer.
func (s *server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	ms, err := uploadArgs(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if refuseDeclaredOversize(w, r, "uploading model") {
		return
	}
	id, n, err := s.engine.PutModel(ms, http.MaxBytesReader(w, r.Body, maxSubmitBytes), r.ContentLength)
	switch {
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(defaultRetryAfter))
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrModelTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case err != nil:
		writeBodyError(w, "uploading model", err)
	default:
		writeJSON(w, http.StatusCreated, map[string]any{"model_id": id, "bytes": n})
	}
}

// handleSubmit never buffers a snapshot string or shows one to
// encoding/json: readJobSpec streams each through base64 and SHA-256 and
// hands back a spec whose snapshots are already hashed, so a job over a
// model the registry holds costs one pass over its body.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if refuseDeclaredOversize(w, r, "decoding job spec") {
		return
	}
	spec, release, err := readJobSpec(http.MaxBytesReader(w, r.Body, maxSubmitBytes), r.ContentLength)
	defer release()
	if err != nil {
		writeBodyError(w, "decoding job spec", err)
		return
	}
	j, err := s.engine.SubmitCtx(r.Context(), spec)
	if err != nil {
		var memErr *MemoryBudgetError
		switch {
		case errors.Is(err, ErrQueueFull):
			// Load shedding: tell the client when a slot should free up,
			// derived from queue depth over recent drain throughput.
			w.Header().Set("Retry-After", retryAfterSeconds(s.engine.RetryAfter()))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterSeconds(defaultRetryAfter))
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrUnknownModel):
			// The client holds the bytes: upload them again, then resubmit.
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error": err.Error(),
				"code":  "unknown_model",
			})
		case errors.As(err, &memErr):
			// The structured body tells the client what to shrink.
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":           memErr.Error(),
				"code":            "memory_budget",
				"estimated_bytes": memErr.EstimatedBytes,
				"budget_bytes":    memErr.BudgetBytes,
			})
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.engine.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.engine.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	changed := j.Cancel()
	st := j.Status()
	if !changed && st.State != StateCanceled {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s already %s", j.ID, st.State))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// sseKeepalive is the idle interval after which the stream emits a `: ping`
// comment so proxies and load balancers don't reap a connection whose job
// is queued behind a long-running fleet. A variable so tests can shrink it.
var sseKeepalive = 15 * time.Second

// handleStream serves a job's progress as Server-Sent Events. Each event is
// one of:
//
//	event: state     data: {Status}   on every state transition
//	event: progress  data: {Status}   as queries complete (may be coalesced)
//	event: done      data: {Status}   terminal snapshot, then the stream ends
//
// The first event is always a snapshot of the current state, so late
// subscribers start consistent. Running-job progress events carry
// throughput (triples/sec) and an ETA extrapolated from it. Idle gaps are
// bridged with `: ping` keepalive comments every sseKeepalive.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	ch, unsubscribe := j.Subscribe()
	defer unsubscribe()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(event string) bool {
		data, err := json.Marshal(j.Status())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	if !send("state") {
		return
	}
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-ch:
			if !ok {
				send("done") // terminal snapshot closes the stream
				return
			}
			// Progress events buffered before the job finished would all
			// render the same terminal snapshot now; the done event covers it.
			if ev.Type == "progress" && j.State().Terminal() {
				continue
			}
			if !send(ev.Type) {
				return
			}
		}
	}
}
