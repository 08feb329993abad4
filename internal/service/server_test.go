package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/synth"
)

var (
	testGraphOnce sync.Once
	testGraph     *kg.Graph
)

// serviceGraph returns a shared mid-sized graph: big enough that a "full"
// protocol job runs for tens of milliseconds (so cancellation can land
// mid-flight), small enough to keep the suite fast.
func serviceGraph(t testing.TB) *kg.Graph {
	t.Helper()
	testGraphOnce.Do(func() {
		ds, err := synth.Generate(synth.Config{
			Name: "service-test", NumEntities: 800, NumRelations: 10, NumTypes: 10,
			NumTriples: 8000, ValidFrac: 0.06, TestFrac: 0.06, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		testGraph = ds.Graph
	})
	return testGraph
}

// snapshotModel serializes a freshly initialized model — random embeddings
// rank honestly, so evaluations still produce non-zero MRR, without paying
// for training in tests.
func snapshotModel(t *testing.T, g *kg.Graph, name string, dim int, seed int64) []byte {
	t.Helper()
	m, err := kgc.New(name, g, dim, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kgc.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setVar gives a package variable another value for the length of one test.
// Call it before building the engine that reads the variable: cleanups run
// last in, first out, so the engine is closed before the value is restored.
func setVar[T any](t *testing.T, p *T, v T) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// newTestServer serves a fresh engine over HTTP for the length of one test,
// and fails the test if goroutines outlive it (checkNoLeaks).
func newTestServer(t *testing.T, cfg EngineConfig) (*httptest.Server, *Engine) {
	t.Helper()
	checkNoLeaks(t)
	if cfg.Graph == nil {
		cfg.Graph = serviceGraph(t)
	}
	engine, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	srv := httptest.NewServer(NewServer(engine))
	t.Cleanup(srv.Close)
	return srv, engine
}

// leakSlack is how many goroutines above its starting count a test may
// leave behind: runtime and net/http helpers come and go on their own.
const leakSlack = 10

// checkNoLeaks fails t unless, once t's later cleanups have run, the
// goroutine count falls back to within leakSlack of what it is now. Call it
// before registering those cleanups (a server's Close, an engine's Close):
// cleanups run last in, first out, so this one runs after them.
func checkNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(10 * time.Second)
		for n := runtime.NumGoroutine(); n > before+leakSlack; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Errorf("goroutines: %d when the test started, %d after it ended", before, n)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func submitJob(t *testing.T, base string, spec JobSpec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %s", resp.Status)
	}
	return st
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

// TestServerConcurrentJobsShareFramework is the acceptance scenario: two
// different serialized models submitted against the same graph both complete
// with non-zero MRR, and the framework fitted for the first is reused by the
// second (observable through the cache-hit counter).
func TestServerConcurrentJobsShareFramework(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 2})
	g := engine.Graph()

	specs := []JobSpec{
		{Model: ModelSpec{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snapshotModel(t, g, "ComplEx", 16, 3)}, Strategy: "P"},
		{Model: ModelSpec{Name: "DistMult", Dim: 16, Seed: 4, Snapshot: snapshotModel(t, g, "DistMult", 16, 4)}, Strategy: "P"},
	}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			ids[i] = submitJob(t, srv.URL, spec).ID
		}(i, spec)
	}
	wg.Wait()

	hits := 0
	for i, id := range ids {
		st := waitTerminal(t, srv.URL, id)
		if st.State != StateSucceeded {
			t.Fatalf("job %s (%s): state %s, error %q", id, specs[i].Model.Name, st.State, st.Error)
		}
		if st.Result == nil || st.Result.MRR <= 0 {
			t.Fatalf("job %s: missing or zero-MRR result: %+v", id, st.Result)
		}
		if st.Result.Queries != 2*len(g.Test) {
			t.Fatalf("job %s evaluated %d queries, want %d", id, st.Result.Queries, 2*len(g.Test))
		}
		if st.CacheHit {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("%d jobs reported cache hits, want exactly 1 (one miss fits, one reuses)", hits)
	}
	cs := engine.Stats().Cache
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 hit", cs)
	}
}

type sseEvent struct {
	typ    string
	status Status
}

func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.status); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
			events = append(events, cur)
			if cur.typ == "done" {
				return events
			}
		}
	}
	t.Fatalf("stream ended without a done event (%d events)", len(events))
	return nil
}

func TestServerSSEProgressOrdering(t *testing.T) {
	// One worker: the blocker occupies it, so the target job is still queued
	// when the stream attaches and every transition flows through the SSE
	// channel.
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 2})
	g := engine.Graph()
	snap := snapshotModel(t, g, "ComplEx", 16, 3)

	submitJob(t, srv.URL, JobSpec{
		Model: ModelSpec{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snap}, Strategy: "full",
	})
	target := submitJob(t, srv.URL, JobSpec{
		Model: ModelSpec{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snap}, Strategy: "P",
	})

	events := readSSE(t, srv.URL+"/v1/jobs/"+target.ID+"/stream")
	if len(events) < 2 {
		t.Fatalf("got %d SSE events, want at least initial snapshot + done", len(events))
	}
	lastDone := -1
	sawProgress := false
	for i, ev := range events {
		if ev.typ == "progress" {
			sawProgress = true
			if ev.status.Progress.Done < lastDone {
				t.Fatalf("event %d: progress went backwards: %d after %d", i, ev.status.Progress.Done, lastDone)
			}
			lastDone = ev.status.Progress.Done
		}
		if ev.typ == "done" && i != len(events)-1 {
			t.Fatal("done event was not last")
		}
	}
	final := events[len(events)-1]
	if final.typ != "done" || final.status.State != StateSucceeded {
		t.Fatalf("final event = %q state %s, want done/succeeded", final.typ, final.status.State)
	}
	if !sawProgress && final.status.Progress.Done != len(g.Test) {
		t.Fatalf("no progress events and final done=%d, want %d", final.status.Progress.Done, len(g.Test))
	}
	if final.status.Result == nil || final.status.Result.MRR <= 0 {
		t.Fatalf("done event carries no result: %+v", final.status)
	}
}

func TestServerCancelInFlight(t *testing.T) {
	// Single-threaded scoring of the full protocol at a large dimension runs
	// for hundreds of milliseconds — orders of magnitude longer than the
	// stream-then-cancel roundtrip below, so the cancel lands mid-evaluation.
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1})
	g := engine.Graph()

	id := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "ComplEx", Dim: 512, Seed: 5, Snapshot: snapshotModel(t, g, "ComplEx", 512, 5)},
		Strategy: "full",
	}).ID

	// Follow the job's own progress stream and cancel at the first progress
	// event: hundreds of queries remain at that point, so the DELETE lands
	// mid-evaluation deterministically.
	stream, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	cancelled := false
	for !cancelled && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: progress") {
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel returned %s", resp.Status)
		}
		cancelled = true
	}
	if !cancelled {
		t.Fatal("stream ended before any progress event")
	}

	st := waitTerminal(t, srv.URL, id)
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if st.Progress.Total > 0 && st.Progress.Done >= st.Progress.Total {
		t.Fatalf("cancelled job still completed all %d queries", st.Progress.Total)
	}

	// The worker must be free again: a small sampled job still completes.
	after := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)},
		Strategy: "P",
	})
	if st := waitTerminal(t, srv.URL, after.ID); st.State != StateSucceeded {
		t.Fatalf("post-cancel job state = %s, error %q", st.State, st.Error)
	}
}

func TestServerValidationAndNotFound(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()
	snap := snapshotModel(t, g, "ComplEx", 16, 3)

	post := func(spec JobSpec) int {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bad := []JobSpec{
		{Model: ModelSpec{Name: "NotAModel", Dim: 16, Snapshot: snap}},
		{Model: ModelSpec{Name: "ComplEx", Dim: 0, Snapshot: snap}},
		{Model: ModelSpec{Name: "ComplEx", Dim: 16}},
		{Model: ModelSpec{Name: "ComplEx", Dim: 16, Snapshot: snap}, Strategy: "Z"},
		{Model: ModelSpec{Name: "ComplEx", Dim: 16, Snapshot: snap}, Split: "train"},
		{Model: ModelSpec{Name: "ComplEx", Dim: 16, Snapshot: snap}, Recommender: "NotARec"},
		{Model: ModelSpec{Name: "ComplEx", Dim: 16, Snapshot: snap}, Precision: "float16"},
		// ~584 years, which time.Duration(ms)*time.Millisecond wraps to 448µs.
		{Model: ModelSpec{Name: "ComplEx", Dim: 16, Snapshot: snap}, TimeoutMS: 18446744073710},
	}
	for i, spec := range bad {
		if code := post(spec); code != http.StatusBadRequest {
			t.Errorf("bad spec %d accepted with status %d", i, code)
		}
	}

	// A snapshot whose architecture disagrees with the spec fails the job
	// at load time rather than at submission.
	st := submitJob(t, srv.URL, JobSpec{
		Model: ModelSpec{Name: "ComplEx", Dim: 24, Seed: 3, Snapshot: snap}, Strategy: "P",
	})
	if final := waitTerminal(t, srv.URL, st.ID); final.State != StateFailed || final.Error == "" {
		t.Fatalf("mismatched snapshot: state %s, error %q", final.State, final.Error)
	}

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/stream"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["graph"] != g.Name {
		t.Fatalf("healthz = %v", health)
	}
	if health["fingerprint"] != engine.Fingerprint() {
		t.Fatalf("healthz fingerprint = %v, want %s", health["fingerprint"], engine.Fingerprint())
	}
}

// On a graph without entity types a job naming a type-aware recommender can
// never be fitted, and that is known when it is submitted: POST /v1/jobs
// answers 400 and Engine.Submit an error, both with Fit's own reason. Nothing
// is queued and no Fit runs: the framework cache sees its first miss only
// with the L-WD job after them, and no Fit fails.
func TestUntypedGraphRefusesTypeAwareRecommenders(t *testing.T) {
	untyped := *serviceGraph(t)
	untyped.EntityTypes, untyped.NumTypes = nil, 0
	srv, engine := newTestServer(t, EngineConfig{Graph: &untyped, Workers: 1})
	spec := JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, &untyped, "DistMult", 8, 6)},
		Strategy: "S", MaxQueries: 20,
	}
	const reason = "requires entity types"
	for _, rec := range []string{"DBH-T", "OntoSim", "L-WD-T"} {
		spec.Recommender = rec
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postRaw(t, srv.URL, string(body))
		if msg, _ := out["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, reason) {
			t.Errorf("%s over HTTP: %s %v, want 400 naming %q", rec, resp.Status, out, reason)
		}
		if _, err := engine.Submit(spec); err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("%s through Submit: error %v, want one naming %q", rec, err, reason)
		}
	}
	if n := len(engine.Jobs()); n != 0 {
		t.Errorf("%d refused jobs were registered", n)
	}
	if got := metricValue(fetchMetrics(t, srv.URL), "kgeval_cache_misses_total"); got != 0 {
		t.Errorf("kgeval_cache_misses_total = %v after refusals only, want 0", got)
	}

	// The same graph still serves every recommender that needs no types.
	spec.Recommender = "L-WD"
	if st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID); st.State != StateSucceeded {
		t.Fatalf("L-WD on the untyped graph: state %s, error %q", st.State, st.Error)
	}
	metrics := fetchMetrics(t, srv.URL)
	for name, want := range map[string]float64{"kgeval_cache_misses_total": 1, "kgeval_fit_failures_total": 0} {
		if got := metricValue(metrics, name); got != want {
			t.Errorf("%s = %v after refusals and one good job, want %v", name, got, want)
		}
	}
}

// TestJobPrecision submits the same evaluation at every precision: each job
// must succeed, echo its precision in Status, and land near the float64
// reference (reduced precision is an approximation, not a different
// protocol).
func TestJobPrecision(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 2})
	g := engine.Graph()
	snap := snapshotModel(t, g, "DistMult", 32, 3)
	results := map[string]float64{}
	for _, prec := range []string{"", "float32", "int8"} {
		st := submitJob(t, srv.URL, JobSpec{
			Model:     ModelSpec{Name: "DistMult", Dim: 32, Seed: 3, Snapshot: snap},
			Strategy:  "P",
			Precision: prec,
		})
		if st.Precision != prec {
			t.Errorf("submitted precision %q echoed as %q", prec, st.Precision)
		}
		final := waitTerminal(t, srv.URL, st.ID)
		if final.State != StateSucceeded {
			t.Fatalf("precision %q: state %s, error %q", prec, final.State, final.Error)
		}
		if final.Result == nil {
			t.Fatalf("precision %q: no result", prec)
		}
		results[prec] = final.Result.MRR
	}
	for _, prec := range []string{"float32", "int8"} {
		if dev := results[prec] - results[""]; dev > 0.01 || dev < -0.01 {
			t.Errorf("%s MRR %v deviates from float64 %v", prec, results[prec], results[""])
		}
	}
}

// TestEngineRetentionAndSnapshotRelease checks the two memory bounds of a
// long-lived server: terminal jobs are pruned beyond retainJobs, and a
// retained job holds neither snapshot bytes nor its models.
func TestEngineRetentionAndSnapshotRelease(t *testing.T) {
	g := serviceGraph(t)
	setVar(t, &retainJobs, 2)
	engine, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 20}

	var last *Job
	for i := 0; i < 5; i++ {
		j, err := engine.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID, j.State())
			}
			time.Sleep(time.Millisecond)
		}
		if j.State() != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", j.ID, j.State(), j.Status().Error)
		}
		last = j
	}
	if n := len(engine.Jobs()); n > 3 {
		t.Fatalf("engine retains %d jobs, want <= 3 with retainJobs=2", n)
	}
	if _, ok := engine.Get(last.ID); !ok {
		t.Fatal("most recent job was pruned")
	}
	last.mu.Lock()
	held := len(last.Spec.Model.Snapshot) + len(last.models)
	last.mu.Unlock()
	if held != 0 {
		t.Fatalf("terminal job still holds snapshot bytes or model references (%d)", held)
	}
	// The caller's spec is theirs: submission hashed it, it did not edit it.
	if len(spec.Model.Snapshot) != len(snap) || spec.Model.ModelID != "" {
		t.Fatal("Submit modified the caller's JobSpec")
	}
}

// TestEngineQueueFull exercises the backpressure path without HTTP.
func TestEngineQueueFull(t *testing.T) {
	g := serviceGraph(t)
	engine, err := NewEngine(EngineConfig{Graph: g, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	snap := snapshotModel(t, g, "ComplEx", 32, 3)
	spec := JobSpec{Model: ModelSpec{Name: "ComplEx", Dim: 32, Seed: 3, Snapshot: snap}, Strategy: "full"}

	rejected := 0
	for i := 0; i < 8; i++ {
		switch _, err := engine.Submit(spec); err {
		case nil:
		case ErrQueueFull:
			rejected++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("queue of depth 1 accepted 8 slow jobs")
	}
	if got := fmt.Sprint(ErrQueueFull); !strings.Contains(got, "queue full") {
		t.Fatalf("ErrQueueFull text = %q", got)
	}
}

// TestSubmitAfterCloseIsDraining: once Close has run, Submit returns
// ErrDraining and POST /v1/jobs answers 503 with a Retry-After, as during a
// drain.
func TestSubmitAfterCloseIsDraining(t *testing.T) {
	ts, engine := newTestServer(t, EngineConfig{Workers: 1})
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, engine.Graph(), "DistMult", 8, 6)}, Strategy: "R"}
	engine.Close()
	if _, err := engine.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Close = %v, want ErrDraining", err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("POST /v1/jobs after Close = %s, Retry-After %q; want 503 with a Retry-After",
			resp.Status, resp.Header.Get("Retry-After"))
	}
}

// TestCloseAndDrainAfterEachOther: whichever of Close and Drain comes
// second is a no-op — it returns at once, closes nothing twice — and Submit
// stays ErrDraining.
func TestCloseAndDrainAfterEachOther(t *testing.T) {
	g := serviceGraph(t)
	for _, order := range []string{"drain then close", "close then drain"} {
		engine, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if order == "drain then close" {
			engine.Drain(time.Minute)
			engine.Close()
		} else {
			engine.Close()
			engine.Drain(time.Minute)
		}
		engine.Close()
		if _, err := engine.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, ModelID: "x"}}); !errors.Is(err, ErrDraining) {
			t.Errorf("%s: Submit = %v, want ErrDraining", order, err)
		}
		if engine.Accepting() || !engine.Draining() {
			t.Errorf("%s: Accepting %v, Draining %v; want false, true", order, engine.Accepting(), engine.Draining())
		}
	}
}

// TestServerMetricsEndpoint is the observability acceptance test: after a
// cache-missing job and a cache-hitting job complete, GET /metrics serves
// Prometheus text format carrying the eval stage histograms, the job
// latency histograms, and the cache hit/miss counters.
func TestServerMetricsEndpoint(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 2})
	g := engine.Graph()

	for i, name := range []string{"ComplEx", "DistMult"} {
		st := submitJob(t, srv.URL, JobSpec{
			Model:    ModelSpec{Name: name, Dim: 16, Seed: int64(3 + i), Snapshot: snapshotModel(t, g, name, 16, int64(3+i))},
			Strategy: "P", MaxQueries: 50,
		})
		if final := waitTerminal(t, srv.URL, st.ID); final.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Error)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Eval stage histograms (obs.Default, populated by the jobs above).
	for _, stage := range []string{"plan_compile", "pool_draw", "score", "rank_merge"} {
		if !strings.Contains(body, `kgeval_eval_stage_seconds_bucket{stage="`+stage+`"`) {
			t.Errorf("missing eval stage histogram for %q", stage)
		}
	}
	// The two jobs share the cached Framework, strategy, seed and query
	// sample, so the second found the first's pools in its memo.
	for _, outcome := range []string{"hit", "miss"} {
		_, after, ok := strings.Cut(body, `kgeval_eval_pool_plans_total{outcome="`+outcome+`"} `)
		if n, _ := strconv.Atoi(strings.Fields(after + " 0")[0]); !ok || n < 1 {
			t.Errorf("pool_plans_total{outcome=%q} = %d (present %v), want at least 1", outcome, n, ok)
		}
	}
	// The rank count's second, exact scorings of candidates an approximate
	// score could not place (0 off the 512-bit lane).
	if !strings.Contains(body, "# TYPE kgeval_eval_candidates_rescored_total counter") {
		t.Errorf("metrics exposition missing the rescored-candidates counter")
	}
	// Engine-side instruments.
	for _, want := range []string{
		"# TYPE kgeval_job_run_seconds histogram",
		`kgeval_job_run_seconds_count{state="succeeded"} 2`,
		"# TYPE kgeval_job_queue_wait_seconds histogram",
		"kgeval_jobs_submitted_total 2",
		`kgeval_jobs_completed_total{state="succeeded"} 2`,
		"kgeval_cache_hits_total 1",
		"kgeval_cache_misses_total 1",
		"kgeval_cache_evictions_total 0",
		"kgeval_model_cache_hits_total 0",
		"kgeval_model_cache_misses_total 2",
		"kgeval_model_cache_evictions_total 0",
		"# TYPE kgeval_model_cache_bytes gauge",
		"kgeval_job_queue_depth 0",
		"kgeval_workers 2",
		"kgeval_workers_busy 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestServerSSEKeepalive shrinks the keepalive interval and checks that a
// stream over a job stuck in the queue carries `: ping` comments, so idle
// long jobs survive proxies that reap quiet connections.
func TestServerSSEKeepalive(t *testing.T) {
	old := sseKeepalive
	sseKeepalive = 2 * time.Millisecond
	defer func() { sseKeepalive = old }()

	// One worker occupied by a stack of full-protocol jobs keeps the target
	// job queued — and its stream silent — while we listen for pings. Several
	// blockers (not one) because the batch lane makes a single full pass too
	// fast to straddle even a shrunken keepalive interval.
	srv, engine := newTestServer(t, EngineConfig{Workers: 1, EvalWorkers: 1})
	g := engine.Graph()
	blocker := snapshotModel(t, g, "ComplEx", 256, 5)
	for i := 0; i < 4; i++ {
		submitJob(t, srv.URL, JobSpec{
			Model:    ModelSpec{Name: "ComplEx", Dim: 256, Seed: 5, Snapshot: blocker},
			Strategy: "full",
		})
	}
	target := submitJob(t, srv.URL, JobSpec{
		Model:    ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)},
		Strategy: "P", MaxQueries: 10,
	})

	resp, err := http.Get(srv.URL + "/v1/jobs/" + target.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	pings := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == ": ping" {
			pings++
		}
		if strings.HasPrefix(line, "event: done") || pings >= 3 {
			break
		}
	}
	if pings == 0 {
		t.Fatal("stream over an idle queued job carried no keepalive pings")
	}
}
