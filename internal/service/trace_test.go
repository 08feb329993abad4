package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"kgeval/internal/faults"
	"kgeval/internal/obs/trace"
)

// getBody returns the status and body of a GET.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	code, body := getBody(t, url)
	if v != nil && code == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return code
}

// TestTracePropagation submits a job over HTTP and checks the end-to-end
// span tree: HTTP request → job → queue wait, plan compile (with pool draw
// under it), the evaluation pass, and per-task chunk spans with the
// relations/queries/pool/strips/precision/tile attributes. Also covers the trace endpoints
// themselves: /v1/jobs/{id}/trace, its chrome format, and /debug/traces/{id}.
func TestTracePropagation(t *testing.T) {
	ts, _ := newTestServer(t, EngineConfig{Workers: 1})
	g := serviceGraph(t)
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 40}

	st := submitJob(t, ts.URL, spec)
	if st.TraceID == "" {
		t.Fatal("submission Status carries no trace_id")
	}
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.TraceID != st.TraceID {
		t.Fatalf("trace_id changed across status calls: %s vs %s", final.TraceID, st.TraceID)
	}
	if final.QueueWaitMS < 0 {
		t.Fatalf("queue_wait_ms = %v", final.QueueWaitMS)
	}

	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("GET job trace: %d", code)
	}
	if tr.TraceID != st.TraceID {
		t.Fatalf("trace document ID %s, want %s", tr.TraceID, st.TraceID)
	}

	spans := map[string]trace.SpanRecord{}
	chunks := 0
	for _, s := range tr.Spans {
		if s.Name == "eval.chunk" {
			chunks++
			continue
		}
		spans[s.Name] = s
	}
	root, ok := spans["http POST /v1/jobs"]
	if !ok {
		t.Fatalf("no HTTP root span; got %v", tr.Spans)
	}
	if root.Parent != "" {
		t.Fatal("HTTP span has a parent")
	}
	job, ok := spans["job"]
	if !ok || job.Parent != root.SpanID {
		t.Fatalf("job span missing or not a child of the HTTP span: %+v", job)
	}
	if job.Attr("job_id") != st.ID {
		t.Fatalf("job span job_id attr = %v, want %s", job.Attr("job_id"), st.ID)
	}
	queue, ok := spans["queue_wait"]
	if !ok || queue.Parent != job.SpanID {
		t.Fatalf("queue_wait span missing or misparented: %+v", queue)
	}
	compile, ok := spans["eval.plan_compile"]
	if !ok || compile.Parent != job.SpanID {
		t.Fatalf("plan_compile span missing or misparented: %+v", compile)
	}
	if pd, ok := spans["eval.pool_draw"]; !ok || pd.Parent != compile.SpanID {
		t.Fatalf("pool_draw span missing or not under plan_compile: %+v", pd)
	}
	pass, ok := spans["eval.pass"]
	if !ok || pass.Parent != job.SpanID {
		t.Fatalf("eval.pass span missing or misparented: %+v", pass)
	}
	if fit, ok := spans["framework.fit"]; !ok || fit.Parent != job.SpanID {
		t.Fatalf("framework.fit span missing or misparented: %+v", fit)
	}
	if chunks == 0 {
		t.Fatal("no eval.chunk spans recorded")
	}
	for _, s := range tr.Spans {
		if s.Name != "eval.chunk" {
			continue
		}
		if s.Parent != pass.SpanID {
			t.Fatalf("chunk span parented under %s, want the pass span", s.Parent)
		}
		for _, key := range []string{"relations", "queries", "pool_tail", "pool_head", "strips"} {
			if _, ok := s.Attr(key).(float64); !ok { // JSON numbers decode as float64
				t.Fatalf("chunk attr %q missing or non-numeric: %v", key, s.Attrs)
			}
		}
		if s.Attr("precision") != "float64" {
			t.Fatalf("chunk precision attr = %v", s.Attr("precision"))
		}
		break
	}
	// The cache outcome lands as an event on the job's span tree (miss on
	// this first submission, during execute).
	foundCacheEvent := false
	for _, s := range tr.Spans {
		for _, ev := range s.Events {
			if ev.Name == "cache.miss" || ev.Name == "cache.hit" {
				foundCacheEvent = true
			}
		}
	}
	if !foundCacheEvent {
		t.Fatal("no cache hit/miss event in the job trace")
	}

	// Chrome export parses and contains the chunk spans.
	var chrome trace.ChromeTrace
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace?format=chrome", &chrome); code != http.StatusOK {
		t.Fatalf("GET chrome trace: %d", code)
	}
	if len(chrome.TraceEvents) < len(tr.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}

	// /debug/traces/{id} serves the job's trace by its ID.
	var byID trace.Trace
	if code := getJSON(t, ts.URL+"/debug/traces/"+st.TraceID, &byID); code != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id}: %d", code)
	}
	if byID.TraceID != st.TraceID || len(byID.Spans) != len(tr.Spans) {
		t.Fatalf("/debug/traces/{id} served trace %s with %d spans, want %s with %d",
			byID.TraceID, len(byID.Spans), st.TraceID, len(tr.Spans))
	}
	if code := getJSON(t, ts.URL+"/debug/traces/ffffffffffffffffffffffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace ID returned %d, want 404", code)
	}

	// SSE events render the full Status, so every event carries the trace ID.
	for i, ev := range readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/stream") {
		if ev.status.TraceID != st.TraceID {
			t.Fatalf("SSE event %d carries trace_id %q, want %q", i, ev.status.TraceID, st.TraceID)
		}
	}

	// Exemplars: when the scraper negotiates OpenMetrics, the eval stage
	// histograms in /metrics carry the trace ID of a recent observation in
	// exemplar syntax.
	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	if ct := resp.Header.Get("Content-Type"); !containsStr(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	if !containsExemplar(metrics, "kgeval_eval_stage_seconds_bucket") {
		t.Fatalf("no exemplar on kgeval_eval_stage_seconds buckets:\n%.2000s", metrics)
	}
	if !containsExemplar(metrics, "kgeval_job_run_seconds_bucket") {
		t.Fatal("no exemplar on kgeval_job_run_seconds buckets")
	}

	// A classic scrape (no Accept header) must stay parseable by the 0.0.4
	// text parser: no exemplar annotations on sample lines.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range splitLines(string(body)) {
		if len(line) > 0 && line[0] != '#' && containsStr(line, "#") {
			t.Fatalf("classic /metrics line carries exemplar syntax: %q", line)
		}
	}
}

// containsExemplar reports whether any line starting with prefix carries an
// OpenMetrics exemplar annotation.
func containsExemplar(exposition, prefix string) bool {
	for _, line := range splitLines(exposition) {
		if len(line) > len(prefix) && line[:len(prefix)] == prefix &&
			containsStr(line, `# {trace_id="`) {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReadyz covers the readiness endpoint: ready while the engine accepts,
// 503 after Close.
func TestReadyz(t *testing.T) {
	ts, engine := newTestServer(t, EngineConfig{Workers: 1})
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz = %d while accepting", code)
	}
	engine.Close()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after Close, want 503", code)
	}
}

// TestSubmitWithoutHTTPIsTraced checks the programmatic path: Submit with
// no request span still produces a complete trace rooted at the job span,
// served by trace ID like an HTTP job's.
func TestSubmitWithoutHTTPIsTraced(t *testing.T) {
	ts, engine := newTestServer(t, EngineConfig{Workers: 1})
	snap := snapshotModel(t, engine.Graph(), "DistMult", 8, 6)
	j, err := engine.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "R", MaxQueries: 20})
	if err != nil {
		t.Fatal(err)
	}
	if j.TraceID() == "" {
		t.Fatal("programmatic Submit produced an untraced job")
	}
	<-jobDone(j)
	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/debug/traces/"+j.TraceID(), &tr); code != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id} for a programmatic job = %d, want 200", code)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"job", "queue_wait", "eval.plan_compile", "eval.pass", "eval.chunk"} {
		if !names[want] {
			t.Fatalf("trace missing %q span; have %v", want, tr.Spans)
		}
	}
}

// postJob posts body to /v1/jobs and returns the response status.
func postJob(t *testing.T, base string, body []byte) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestTraceByIDSurvivesRejectionBurst: a burst of rejected submissions —
// malformed specs (400) and specs shed by a full queue behind a stalled
// worker (429) — must not cost an accepted job its trace. Every accepted
// job's trace_id resolves at /debug/traces/{id} to the document
// /v1/jobs/{id}/trace serves.
func TestTraceByIDSurvivesRejectionBurst(t *testing.T) {
	ts, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1, QueueDepth: 1})
	snap := snapshotModel(t, engine.Graph(), "DistMult", 8, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 20}

	var accepted []Status
	for i := 0; i < 3; i++ {
		st := submitJob(t, ts.URL, spec)
		if final := waitTerminal(t, ts.URL, st.ID); final.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Error)
		}
		accepted = append(accepted, st)
	}
	// Later submissions name the registered model instead of resending it.
	byID := spec
	byID.Model.Snapshot, byID.Model.ModelID = nil, accepted[0].ModelID

	// A stalled blocker holds the one worker and a second job fills the
	// queue, so every further valid submission is shed with 429.
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: time.Minute, Limit: 1})
	blocker := submitJob(t, ts.URL, byID)
	for getStatus(t, ts.URL, blocker.ID).State == StateQueued {
		time.Sleep(time.Millisecond)
	}
	accepted = append(accepted, blocker, submitJob(t, ts.URL, byID))

	bad := []byte(`{"split":"nope"}`)
	full, err := json.Marshal(byID)
	if err != nil {
		t.Fatal(err)
	}
	codes := map[int]int{}
	for i := 0; i < 320; i++ {
		body := bad
		if i%2 == 1 {
			body = full
		}
		codes[postJob(t, ts.URL, body)]++
	}
	if codes[http.StatusBadRequest] != 160 || codes[http.StatusTooManyRequests] != 160 {
		t.Fatalf("burst answered %v, want 160 × 400 and 160 × 429", codes)
	}

	// Release the blocker so the queued job runs, and let every trace settle.
	if j, ok := engine.Get(blocker.ID); !ok || !j.Cancel() {
		t.Fatal("blocker was not running")
	}
	for _, st := range accepted {
		waitTerminal(t, ts.URL, st.ID)
	}
	for _, st := range accepted {
		code, want := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s/trace = %d", st.ID, code)
		}
		code, got := getBody(t, ts.URL+"/debug/traces/"+st.TraceID)
		if code != http.StatusOK {
			t.Fatalf("job %s: GET /debug/traces/%s after the burst = %d, want 200", st.ID, st.TraceID, code)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s: /debug/traces/{id} and /v1/jobs/{id}/trace differ:\n%s\n%s", st.ID, got, want)
		}
	}
}

// TestPrunedJobTraceIsGone: the job index is the only place a trace is
// kept, so once the engine prunes a job its trace is 404 on both routes,
// while the retained job's is served on both.
func TestPrunedJobTraceIsGone(t *testing.T) {
	setVar(t, &retainJobs, 1)
	ts, engine := newTestServer(t, EngineConfig{Workers: 1})
	snap := snapshotModel(t, engine.Graph(), "DistMult", 8, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "R", MaxQueries: 20}
	var jobs []Status
	for i := 0; i < 2; i++ {
		st := submitJob(t, ts.URL, spec)
		if final := waitTerminal(t, ts.URL, st.ID); final.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Error)
		}
		jobs = append(jobs, st)
	}
	// The second submission pruned the first, terminal, job.
	pruned, kept := jobs[0], jobs[1]
	for _, url := range []string{"/v1/jobs/" + pruned.ID + "/trace", "/debug/traces/" + pruned.TraceID} {
		if code := getJSON(t, ts.URL+url, nil); code != http.StatusNotFound {
			t.Errorf("GET %s for a pruned job = %d, want 404", url, code)
		}
	}
	for _, url := range []string{"/v1/jobs/" + kept.ID + "/trace", "/debug/traces/" + kept.TraceID} {
		if code := getJSON(t, ts.URL+url, nil); code != http.StatusOK {
			t.Errorf("GET %s for a retained job = %d, want 200", url, code)
		}
	}
}

// jobDone returns a channel closed when the job reaches a terminal state.
func jobDone(j *Job) <-chan struct{} {
	done := make(chan struct{})
	ch, unsub := j.Subscribe()
	go func() {
		defer close(done)
		defer unsub()
		for range ch {
		}
	}()
	return done
}

// The queue_wait span is the wait Status.queue_wait_ms and the queue-wait
// histogram report, read off the same clock readings: its duration is
// StartedAt − CreatedAt exactly for a job that ran, and FinishedAt −
// CreatedAt for one cancelled while queued.
func TestQueueWaitSpanIsTheStatusWait(t *testing.T) {
	queueWait := func(t *testing.T, j *Job) trace.SpanRecord {
		t.Helper()
		var found []trace.SpanRecord
		for _, s := range j.span.Recorder().Snapshot().Spans {
			if s.Name == "queue_wait" {
				found = append(found, s)
			}
		}
		if len(found) != 1 {
			t.Fatalf("job %s: %d queue_wait spans, want 1", j.ID, len(found))
		}
		return found[0]
	}

	e, err := NewEngine(EngineConfig{Graph: serviceGraph(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, e.Graph(), "DistMult", 8, 6)
	j, err := e.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "R", MaxQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateSucceeded {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if got, want := queueWait(t, j).Duration(), st.StartedAt.Sub(st.CreatedAt); got != want {
		t.Errorf("queue_wait span lasts %v, Status's wait is %v", got, want)
	}

	_, root := trace.NewStore(0, 0).StartTrace(context.Background(), "job")
	queued := newJob("j-queued", JobSpec{}, root)
	if !queued.Cancel() {
		t.Fatal("a queued job refused to cancel")
	}
	st = queued.Status()
	if got, want := queueWait(t, queued).Duration(), st.FinishedAt.Sub(st.CreatedAt); got != want {
		t.Errorf("cancelled while queued: queue_wait span lasts %v, Status's wait is %v", got, want)
	}
}
