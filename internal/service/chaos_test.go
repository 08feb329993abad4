package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"kgeval/internal/faults"
)

// The chaos suite drives the full HTTP server while the faults registry
// injects failures at named pipeline sites, asserting the robustness
// contract: every failure mode ends in a terminal job state with an
// actionable error, the server keeps serving, and /metrics counts the event.
// Tests share the process-global faults registry, so none of them run in
// parallel and each resets the registry on cleanup.

func armFault(t *testing.T, site string, p faults.Plan) {
	t.Helper()
	faults.Arm(site, p)
	t.Cleanup(faults.Reset)
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricValue extracts a sample value from a Prometheus text exposition;
// name must include labels when the metric has them. Returns -1 if absent.
func metricValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

func serving(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("server stopped serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s after fault", resp.Status)
	}
}

// TestChaosFitPoisonKey: a failed Fit fails its job and every job that
// joined its build, and leaves nothing behind — no cached failure, no wait —
// so the next job naming the key fits again as soon as the fault is gone.
// /metrics counts each failed build once, not once per joiner (whether jobs
// here join a build is up to the scheduler; TestFitFailureCountsOnlyTheBuild
// makes them).
func TestChaosFitPoisonKey(t *testing.T) {
	t.Run("panic", func(t *testing.T) {
		srv, engine := newTestServer(t, EngineConfig{Workers: 2})
		armFault(t, faults.SiteFit, faults.Plan{Action: faults.Panic})

		spec := chaosFitSpec(t, engine)
		const jobs = 6
		ids := make([]string, jobs)
		for i := range ids {
			ids[i] = submitJob(t, srv.URL, spec).ID
		}
		for i, id := range ids {
			st := waitTerminal(t, srv.URL, id)
			if st.State != StateFailed {
				t.Fatalf("job %d under fit panic: state %s, error %q", i, st.State, st.Error)
			}
			if !strings.Contains(st.Error, "fit panicked") || !strings.Contains(st.Error, "buildFramework") {
				t.Fatalf("job %d error carries no panic stack: %q", i, st.Error)
			}
		}
		serving(t, srv.URL)

		body := fetchMetrics(t, srv.URL)
		misses := metricValue(body, "kgeval_cache_misses_total")
		if got := metricValue(body, "kgeval_fit_failures_total"); got != misses {
			t.Errorf("kgeval_fit_failures_total = %v, want kgeval_cache_misses_total = %v (one per build)", got, misses)
		}
		for metric, want := range map[string]float64{
			"kgeval_cache_size":                           0,
			`kgeval_jobs_completed_total{state="failed"}`: jobs,
		} {
			if got := metricValue(body, metric); got != want {
				t.Errorf("%s = %v, want %v", metric, got, want)
			}
		}

		// Fault gone: the very next job fits and succeeds.
		faults.Reset()
		if st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID); st.State != StateSucceeded {
			t.Fatalf("job after the fault: state %s, error %q", st.State, st.Error)
		}
		if got := metricValue(fetchMetrics(t, srv.URL), "kgeval_cache_misses_total"); got != misses+1 {
			t.Errorf("kgeval_cache_misses_total = %v after the good job, want %v", got, misses+1)
		}
	})

	t.Run("error_once", func(t *testing.T) {
		srv, engine := newTestServer(t, EngineConfig{Workers: 2})
		spec := chaosFitSpec(t, engine)
		armFault(t, faults.SiteFit, faults.Plan{Action: faults.Error, Limit: 1})

		if st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID); st.State != StateFailed {
			t.Fatalf("job under one fit error: state %s, error %q", st.State, st.Error)
		}
		if st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID); st.State != StateSucceeded {
			t.Fatalf("job after the fit error: state %s, error %q", st.State, st.Error)
		}
		if got := metricValue(fetchMetrics(t, srv.URL), "kgeval_fit_failures_total"); got != 1 {
			t.Errorf("kgeval_fit_failures_total = %v, want 1", got)
		}
	})
}

// TestJoinedFitOutlivesTheStartingJob: a Fit belongs to every job that
// waits for it, not to the job that happened to start it. With the build
// stalled (service/fit=stall,2s), job A at timeout_ms=300 starts it and job
// B, with no deadline, joins it 50 ms later: A expires at its deadline, B
// gets the fitted framework and succeeds, and no fit failure is counted.
func TestJoinedFitOutlivesTheStartingJob(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 2})
	armFault(t, faults.SiteFit, faults.Plan{Action: faults.Stall, Stall: 2 * time.Second, Limit: 1})

	spec := chaosFitSpec(t, engine)
	short := spec
	short.TimeoutMS = 300
	a := submitJob(t, srv.URL, short).ID
	time.Sleep(50 * time.Millisecond)
	b := submitJob(t, srv.URL, spec).ID
	if st := waitTerminal(t, srv.URL, a); st.State != StateExpired {
		t.Fatalf("job A (timeout_ms=300, started the stalled Fit): state %s, error %q", st.State, st.Error)
	}
	if st := waitTerminal(t, srv.URL, b); st.State != StateSucceeded {
		t.Fatalf("job B (no deadline, joined A's Fit): state %s, error %q", st.State, st.Error)
	}
	body := fetchMetrics(t, srv.URL)
	if got := metricValue(body, "kgeval_fit_failures_total"); got != 0 {
		t.Errorf("kgeval_fit_failures_total = %v, want 0", got)
	}
	if got := metricValue(body, "kgeval_cache_misses_total"); got != 1 {
		t.Errorf("kgeval_cache_misses_total = %v, want 1: B joined A's build", got)
	}
}

func chaosFitSpec(t *testing.T, engine *Engine) JobSpec {
	t.Helper()
	snap := snapshotModel(t, engine.Graph(), "DistMult", 8, 6)
	return JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 20}
}

// TestChaosWorkerStallPastDeadline: a worker stalled (injected hang) past
// the job's deadline leaves the job terminal in state expired at roughly
// the deadline — not after the stall — the worker comes back, and the
// expiry is counted.
func TestChaosWorkerStallPastDeadline(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()
	snap := snapshotModel(t, g, "DistMult", 8, 6)

	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: time.Minute, Limit: 1})

	start := time.Now()
	st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap},
		Strategy: "P", MaxQueries: 20, TimeoutMS: 300,
	}).ID)
	if st.State != StateExpired {
		t.Fatalf("stalled job: state %s, error %q", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("expired job error = %q", st.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("expiry took %s — the stall, not the deadline, bounded it", elapsed)
	}
	if st.FinishedAt == nil || st.FinishedAt.IsZero() {
		t.Fatal("expired job has no finish timestamp")
	}
	serving(t, srv.URL)

	// The worker must come back: the next job (fault exhausted) succeeds.
	st = waitTerminal(t, srv.URL, submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap},
		Strategy: "P", MaxQueries: 20,
	}).ID)
	if st.State != StateSucceeded {
		t.Fatalf("job after stall: state %s, error %q", st.State, st.Error)
	}
	if got := metricValue(fetchMetrics(t, srv.URL), `kgeval_jobs_completed_total{state="expired"}`); got != 1 {
		t.Errorf(`kgeval_jobs_completed_total{state="expired"} = %v, want 1`, got)
	}
}

// TestChaosExpiredWhileQueued: a job whose deadline passes while it is
// still waiting for a worker reaches expired without ever running, and its
// SSE subscribers get the terminal event.
func TestChaosExpiredWhileQueued(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1})
	g := engine.Graph()
	snap := snapshotModel(t, g, "DistMult", 8, 6)

	// A stalled blocker occupies the single worker deterministically past
	// the target's deadline (the stall is context-bounded, so the engine's
	// cleanup Close still reclaims the worker).
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: time.Minute, Limit: 1})
	submitJob(t, srv.URL, JobSpec{
		Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P",
	})
	target := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap},
		Strategy: "P", TimeoutMS: 150,
	})

	events := readSSE(t, srv.URL+"/v1/jobs/"+target.ID+"/stream")
	final := events[len(events)-1]
	if final.typ != "done" || final.status.State != StateExpired {
		t.Fatalf("final SSE event = %q state %s, want done/expired", final.typ, final.status.State)
	}
	if final.status.StartedAt != nil {
		t.Fatal("expired-while-queued job reports a start time")
	}
}

// TestChaosStoreBuildError: an injected entity-store build failure inside
// the scoring hot path surfaces as a failed job whose error names the store
// build, with the panic stack attached — and the server keeps serving.
func TestChaosStoreBuildError(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 20}

	armFault(t, faults.SiteStoreBuild, faults.Plan{Action: faults.Error, Limit: 1})

	st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID)
	if st.State != StateFailed {
		t.Fatalf("job under store-build fault: state %s, error %q", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "entity store") || !strings.Contains(st.Error, "injected") {
		t.Fatalf("store-build failure error = %q", st.Error)
	}
	serving(t, srv.URL)

	// Fault exhausted: the same spec succeeds.
	st = waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID)
	if st.State != StateSucceeded {
		t.Fatalf("job after store fault: state %s, error %q", st.State, st.Error)
	}
}

// TestChaosPoolDrawPanicStackInStatus is the panic-recovery acceptance
// test: a panic deep in the eval layer (pool draw) fails the one job, and
// GET /v1/jobs/{id} shows the panic message and the stack including the
// panic origin.
func TestChaosPoolDrawPanicStackInStatus(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()

	armFault(t, faults.SitePoolDraw, faults.Plan{Action: faults.Panic, Limit: 1})

	id := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)},
		Strategy: "P", MaxQueries: 20,
	}).ID
	st := waitTerminal(t, srv.URL, id)
	if st.State != StateFailed {
		t.Fatalf("job under pool-draw panic: state %s, error %q", st.State, st.Error)
	}
	for _, want := range []string{"evaluation panicked", "injected panic at eval/pooldraw", "goroutine", "newPlan"} {
		if !strings.Contains(st.Error, want) {
			t.Errorf("status error missing %q:\n%s", want, st.Error)
		}
	}
	serving(t, srv.URL)
}

// TestServerQueueFullRetryAfter: a saturated queue turns submissions into
// 429 with a Retry-After header, and the shed is counted by reason.
func TestServerQueueFullRetryAfter(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1, QueueDepth: 1})
	g := engine.Graph()
	blocker := snapshotModel(t, g, "ComplEx", 512, 5)
	// The first job stalls in the one worker, so the queue behind it fills
	// whatever a full-protocol pass costs: the test used to count on that
	// pass outlasting a few submissions, which under -race (Go slowed ~10×,
	// the assembly kernels not at all) it no longer does.
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: time.Minute, Limit: 1})

	post := func() *http.Response {
		t.Helper()
		body, _ := json.Marshal(JobSpec{
			Model:    ModelSpec{Name: "ComplEx", Dim: 512, Seed: 5, Snapshot: blocker},
			Strategy: "full",
		})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var rejected *http.Response
	for i := 0; i < 8; i++ {
		resp := post()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d returned %s", i, resp.Status)
		}
	}
	if rejected == nil {
		t.Fatal("queue of depth 1 never rejected a submission")
	}
	ra, err := strconv.Atoi(rejected.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want an integer >= 1", rejected.Header.Get("Retry-After"))
	}
	if got := metricValue(fetchMetrics(t, srv.URL), `kgeval_jobs_shed_total{reason="queue_full"}`); got < 1 {
		t.Errorf(`kgeval_jobs_shed_total{reason="queue_full"} = %v, want >= 1`, got)
	}
}

// TestServerMemoryBudget: the gate charges a model its snapshot bytes and a
// float32 job the float32 copy of the entity table it builds, so float32 is
// dearer than float64 and nothing is degraded. With the budget between the
// two, a job at the default precision is admitted at float64 and succeeds,
// and the same job at float32 is rejected 429 with a structured body
// carrying the float32 estimate.
func TestServerMemoryBudget(t *testing.T) {
	g := serviceGraph(t)
	const dim = 64
	snap := snapshotModel(t, g, "DistMult", dim, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: dim, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 20}
	store32 := int64(g.NumEntities) * dim * 4
	budget := int64(len(snap)) + store32/2

	srv, _ := newTestServer(t, EngineConfig{Workers: 1, MemoryBudget: budget})

	st := submitJob(t, srv.URL, spec)
	if st.Precision != "" {
		t.Fatalf("default-precision job admitted at precision %q, want the float64 default", st.Precision)
	}
	if final := waitTerminal(t, srv.URL, st.ID); final.State != StateSucceeded {
		t.Fatalf("default-precision job: state %s, error %q", final.State, final.Error)
	}

	spec.Precision = "float32"
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("float32 over budget returned %s, want 429", resp.Status)
	}
	var rej map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej["code"] != "memory_budget" || rej["estimated_bytes"] != float64(int64(len(snap))+store32) ||
		rej["budget_bytes"] != float64(budget) {
		t.Fatalf("rejection body = %v, want code memory_budget, estimated_bytes %d, budget_bytes %d",
			rej, int64(len(snap))+store32, budget)
	}

	mbody := fetchMetrics(t, srv.URL)
	if got := metricValue(mbody, `kgeval_jobs_shed_total{reason="memory_budget"}`); got != 1 {
		t.Errorf(`kgeval_jobs_shed_total{reason="memory_budget"} = %v, want 1`, got)
	}
}

// TestServerGracefulDrain: Drain stops admission (readyz 503 with reason
// "draining", submissions 503), cancels queued jobs with a terminal SSE
// event naming the drain, lets the running job finish, and counts the
// drained job.
func TestServerGracefulDrain(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1})
	g := engine.Graph()

	// The blocker stalls 2s in the worker, then evaluates normally: it is
	// reliably still running when Drain starts, and reliably finishes well
	// inside the drain timeout — the "running jobs get to finish" half of
	// the contract.
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: 2 * time.Second, Limit: 1})
	blocker := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)},
		Strategy: "P", MaxQueries: 20,
	})
	// The blocker must be running (not queued) before Drain, or it would be
	// shed instead of finishing.
	for getStatus(t, srv.URL, blocker.ID).State == StateQueued {
		time.Sleep(time.Millisecond)
	}
	queued := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)},
		Strategy: "P", MaxQueries: 20,
	})

	type sseResult struct {
		events []sseEvent
	}
	streamDone := make(chan sseResult, 1)
	go func() {
		streamDone <- sseResult{readSSE(t, srv.URL+"/v1/jobs/"+queued.ID+"/stream")}
	}()
	// Give the stream a moment to attach so it observes the drain event live.
	time.Sleep(50 * time.Millisecond)

	drained := make(chan struct{})
	go func() {
		engine.Drain(time.Minute)
		close(drained)
	}()

	// readyz flips to 503/draining while the drain is in progress.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var ready map[string]any
		json.NewDecoder(resp.Body).Decode(&ready) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ready["reason"] != "draining" {
				t.Fatalf("readyz 503 reason = %v, want draining", ready["reason"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported unavailable during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The queued job's subscribers got a terminal event naming the drain.
	res := <-streamDone
	final := res.events[len(res.events)-1]
	if final.typ != "done" || final.status.State != StateCanceled || !strings.Contains(final.status.Error, "drain") {
		t.Fatalf("drained job SSE final = %q state %s error %q", final.typ, final.status.State, final.status.Error)
	}

	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain never returned")
	}
	// The running job was allowed to finish.
	if st := getStatus(t, srv.URL, blocker.ID); st.State != StateSucceeded {
		t.Fatalf("running job after drain: state %s, error %q", st.State, st.Error)
	}

	// Admission stays off: submissions are 503 with Retry-After.
	body, _ := json.Marshal(JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)},
		Strategy: "P",
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain returned %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}

	mbody := fetchMetrics(t, srv.URL)
	if got := metricValue(mbody, "kgeval_jobs_drained_total"); got != 1 {
		t.Errorf("kgeval_jobs_drained_total = %v, want 1", got)
	}
	if got := metricValue(mbody, "kgeval_draining"); got != 1 {
		t.Errorf("kgeval_draining = %v, want 1", got)
	}
}

// TestServerSSEClientDisconnect: a client dropping its progress stream
// mid-job must not cancel the job — the request context is the stream's,
// not the job's — and the handler goroutine exits instead of leaking, which
// newTestServer's leak check holds it to.
func TestServerSSEClientDisconnect(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1})
	g := engine.Graph()

	id := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "ComplEx", Dim: 512, Seed: 5, Snapshot: snapshotModel(t, g, "ComplEx", 512, 5)},
		Strategy: "full",
	}).ID

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the initial snapshot, then hang up mid-stream.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The job must run to completion despite the disconnect.
	st := waitTerminal(t, srv.URL, id)
	if st.State != StateSucceeded {
		t.Fatalf("job after client disconnect: state %s, error %q", st.State, st.Error)
	}
}
