package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
	"kgeval/internal/service"
)

// serviceSmallJobs drives the evaluation service the way kgevald runs it: an
// in-process Engine with kgevald's defaults behind NewServer on a real
// loopback listener, fed small jobs by min(2, nproc) closed-loop HTTP
// clients. Per-job overhead — JSON and base64 decode of a multi-megabyte
// body, kgc.Load, store build, cache lookup, queue, SSE — dominates; scoring
// is a small share, so kernel changes should not move this workload and
// service-layer changes should.
//
// A round is one job per class, classes = strategy {R,S,P} × precision slot
// {float64, float64, float32, int8} × max_queries, in seeded order; snapshot
// and sampling seed are drawn per job.
type serviceSmallJobs struct {
	e        *env
	snaps    []snapshot
	engine   *service.Engine
	srv      *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	nClients int

	mu       sync.Mutex
	phases   map[string][]float64 // per-job samples by service.* metric, ms
	sent     []jobSpec            // every job of the timed rounds
	events   int
	rejected int
	bodyMB   float64
	// warmMRR is what the warm-up round's float64 jobs returned, by spec:
	// later jobs with the same spec must return the same number.
	warmMRR  map[jobSpec]float64
	warmJobs []jobSpec
}

type snapshot struct {
	name string
	seed int64
	raw  []byte
	b64  []byte
}

// jobSpec is one generated job; comparable, so duplicates can be counted.
type jobSpec struct {
	snap      int
	strategy  string
	precision string
	maxQ      int
	seed      int64
}

func (w *serviceSmallJobs) build(e *env, train bool) (time.Duration, error) {
	// The server logs every POST at info; the benchmark wants errors only.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})))
	w.e = e
	w.phases = map[string][]float64{}
	w.nClients = min(2, runtime.NumCPU())

	seeds := make([]int64, len(trainedNames))
	for i := range seeds {
		seeds[i] = e.seed*10 + int64(i) // as buildModels seeds them
	}
	save := func(i int, m kgc.Model) {
		var buf bytes.Buffer
		_ = kgc.Save(&buf, m) // a bytes.Buffer write cannot fail
		w.snaps = append(w.snaps, snapshot{name: trainedNames[i], seed: seeds[i], raw: buf.Bytes()})
	}
	models, tt, err := e.buildModels(trainedNames, e.sc.ServiceDim, e.sc.ServiceEpochs, train,
		func(i, epoch int, m kgc.Model) { save(i, m) })
	if err != nil {
		return 0, err
	}
	if !train {
		for i, m := range models {
			for ep := 0; ep < e.sc.ServiceEpochs; ep++ {
				save(i, m)
			}
		}
	}
	for i := range w.snaps {
		s := &w.snaps[i]
		s.b64 = make([]byte, base64.StdEncoding.EncodedLen(len(s.raw)))
		base64.StdEncoding.Encode(s.b64, s.raw)
	}

	e.timed("service.NewEngine", func() {
		w.engine, err = service.NewEngine(service.EngineConfig{
			Graph: e.g, Workers: 2, EvalWorkers: 0, QueueDepth: 128, CacheSize: 8,
		})
	})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: service.NewServer(w.engine)}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns ErrServerClosed on close()
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.nClients}}
	return tt, nil
}

func (w *serviceSmallJobs) clients() int { return w.nClients }

func (w *serviceSmallJobs) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		_ = w.srv.Close()
		<-w.served
	}
	if w.engine != nil {
		w.engine.Close()
	}
}

// jobsFor generates round r's jobs from the run seed alone.
func (w *serviceSmallJobs) jobsFor(r int) []jobSpec {
	rng := rand.New(rand.NewSource(w.e.seed*1_000_003 + int64(r)))
	var jobs []jobSpec
	for _, s := range strategyNames {
		for _, p := range []string{"float64", "float64", "float32", "int8"} {
			for _, q := range w.e.sc.JobSizes {
				jobs = append(jobs, jobSpec{strategy: s, precision: p, maxQ: q})
			}
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for i := range jobs {
		jobs[i].snap = rng.Intn(len(w.snaps))
		jobs[i].seed = 1 + rng.Int63n(8)
	}
	return jobs
}

func (w *serviceSmallJobs) round(r int, rec *recorder) []opResult {
	jobs := w.jobsFor(r)
	out := make([]opResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.nClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = w.runJob(jobs[i], rec)
			}
		}()
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if r == 0 {
		w.warmJobs = jobs
		w.warmMRR = map[jobSpec]float64{}
		for i, j := range jobs {
			if j.precision == "float64" && out[i].err == nil {
				w.warmMRR[j] = out[i].mrrs[0]
			}
		}
	} else {
		w.sent = append(w.sent, jobs...)
	}
	return out
}

// runJob is one op: POST /v1/jobs, then read /v1/jobs/{id}/stream to the
// terminal done event.
func (w *serviceSmallJobs) runJob(j jobSpec, rec *recorder) opResult {
	e := w.e
	snap := w.snaps[j.snap]
	o := opResult{class: fmt.Sprintf("%s/%s/%d", j.strategy, j.precision, j.maxQ)}
	op := int(e.ops.Add(1))
	prefix := fmt.Sprintf(`{"model":{"name":%q,"dim":%d,"seed":%d,"snapshot":"`, snap.name, e.sc.ServiceDim, snap.seed)
	suffix := fmt.Sprintf(`"},"strategy":%q,"max_queries":%d,"seed":%d,"precision":%q}`, j.strategy, j.maxQ, j.seed, j.precision)
	size := int64(len(prefix) + len(snap.b64) + len(suffix))

	root := rec.start("service.job", 0, op)
	start := time.Now()
	defer func() { rec.end(root, o.cands) }()

	submit := rec.start("http_submit", root, op)
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/jobs",
		io.MultiReader(strings.NewReader(prefix), bytes.NewReader(snap.b64), strings.NewReader(suffix)))
	if err != nil {
		o.err = err
		return o
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	var accepted service.Status
	decodeErr := json.NewDecoder(resp.Body).Decode(&accepted)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.end(submit, 0)
	submitted := time.Now()
	if resp.StatusCode != http.StatusAccepted {
		w.mu.Lock()
		w.rejected++
		w.mu.Unlock()
		o.err = fmt.Errorf("submit answered %d, want 202", resp.StatusCode)
		return o
	}
	if decodeErr != nil {
		o.err = fmt.Errorf("decoding the 202 body: %w", decodeErr)
		return o
	}

	wait := rec.start("sse_wait", root, op)
	st, events, seen, err := w.streamToDone(accepted.ID)
	rec.end(wait, 0)
	o.dur = seen.Sub(start)
	if err != nil {
		o.err = err
		return o
	}

	switch {
	case st.State != service.StateSucceeded:
		o.err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
	case st.Result == nil || st.StartedAt == nil || st.FinishedAt == nil:
		o.err = fmt.Errorf("succeeded job carries no result or timestamps")
	}
	if o.err != nil {
		return o
	}
	res := st.Result
	o.cands = res.CandidatesScored
	o.mrrs = []float64{res.MRR}
	var wantCands int64
	if j.strategy == "R" {
		wantCands = 2 * int64(e.ns) * int64(j.maxQ)
	}
	o.err = checkResult(eval.Result{Metrics: eval.Metrics{MRR: res.MRR, Queries: res.Queries},
		CandidatesScored: res.CandidatesScored}, j.maxQ, wantCands)
	w.mu.Lock()
	if want, ok := w.warmMRR[j]; ok && o.err == nil && want != res.MRR {
		o.err = fmt.Errorf("MRR %v differs from %v returned earlier for the identical spec", res.MRR, want)
	}
	run := st.FinishedAt.Sub(*st.StartedAt)
	evalTime := time.Duration(res.ElapsedMS * float64(time.Millisecond))
	for name, d := range map[string]time.Duration{
		"service.http_submit_ms": submitted.Sub(start),
		"service.queue_wait_ms":  st.StartedAt.Sub(st.CreatedAt),
		"service.run_ms":         run,
		"service.eval_ms":        evalTime,
		"service.load_fit_ms":    run - evalTime,
		"service.notify_ms":      seen.Sub(*st.FinishedAt),
	} {
		w.phases[name] = append(w.phases[name], ms(d))
	}
	w.events += events
	w.bodyMB += float64(size) / 1e6
	w.mu.Unlock()

	// Server-side phases, reconstructed from the timestamps the Status
	// returns (same process, same clock).
	rec.add("queue_wait", wait, op, st.CreatedAt, *st.StartedAt)
	runSpan := rec.add("run", wait, op, *st.StartedAt, *st.FinishedAt)
	rec.add("eval", runSpan, op, st.FinishedAt.Add(-evalTime), *st.FinishedAt)
	rec.add("notify", wait, op, *st.FinishedAt, seen)
	return o
}

// streamToDone reads the job's SSE stream to its end and returns the Status
// of the done event, the number of events, and when done was seen.
func (w *serviceSmallJobs) streamToDone(id string) (service.Status, int, time.Time, error) {
	var st service.Status
	resp, err := w.client.Get(w.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return st, 0, time.Now(), err
	}
	defer resp.Body.Close()
	var (
		event  string
		events int
		seen   time.Time
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events++
		case strings.HasPrefix(line, "data: ") && event == "done":
			seen = time.Now()
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, events, seen, fmt.Errorf("decoding the done event: %w", err)
			}
		}
	}
	if seen.IsZero() {
		return st, events, time.Now(), fmt.Errorf("stream of %s ended without a done event (%v)", id, sc.Err())
	}
	return st, events, seen, nil
}

// verify holds every warm-up job against the library: Framework.Estimate for
// the identical spec at float64. A float64 job must match exactly; a
// reduced-precision job contributes its deviation.
func (w *serviceSmallJobs) verify(warm []opResult, layers layerSet) (float64, []string) {
	e := w.e
	// The engine fits with its DefaultSeed (1), not the job's seed.
	fw := core.New(recommender.NewLWD(), e.ns, 1)
	if err := fw.Fit(e.g); err != nil {
		return 0, []string{"fitting the reference framework: " + err.Error()}
	}
	models := make([]kgc.Model, len(w.snaps))
	for i, s := range w.snaps {
		m, err := kgc.New(s.name, e.g, e.sc.ServiceDim, s.seed)
		if err == nil {
			err = kgc.Load(bytes.NewReader(s.raw), m)
		}
		if err != nil {
			return 0, []string{"loading the reference snapshot: " + err.Error()}
		}
		models[i] = m
	}
	var problems []string
	sum, n := 0.0, 0
	for i, j := range w.warmJobs {
		if warm[i].err != nil {
			continue // already reported by the runner
		}
		ref := fw.Estimate(models[j.snap], e.g, e.g.Test, strategies[j.strategy],
			eval.Options{Filter: e.filter, MaxQueries: j.maxQ, Seed: j.seed})
		d := math.Abs(warm[i].mrrs[0] - ref.MRR)
		if j.precision == "float64" && d != 0 {
			problems = append(problems, fmt.Sprintf("job %s returned MRR %v, library %v", warm[i].class, warm[i].mrrs[0], ref.MRR))
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0, append(problems, "no warm-up job returned a result to check")
	}
	return sum / float64(n), problems
}

// ladder reports the phase medians of the jobs already run, the stream's
// duplicate shares, and the rung below HTTP: the same specs through
// Engine.Submit.
func (w *serviceSmallJobs) ladder(ops []opResult, layers layerSet) {
	w.mu.Lock()
	jobs := float64(len(w.phases["service.run_ms"]))
	for name, samples := range w.phases {
		layers[name] = median(samples)
	}
	if jobs > 0 {
		layers["service.sse_events_per_job"] = float64(w.events) / jobs
		layers["service.body_mb"] = w.bodyMB / jobs
	}
	layers["service.rejected_ratio"] = float64(w.rejected) / math.Max(1, jobs+float64(w.rejected))
	exact, plan := map[jobSpec]bool{}, map[jobSpec]bool{}
	for _, j := range w.sent {
		exact[j] = true
		plan[jobSpec{strategy: j.strategy, maxQ: j.maxQ, seed: j.seed}] = true
	}
	if n := float64(len(w.sent)); n > 0 {
		layers["load.dup_job_share"] = 1 - float64(len(exact))/n
		layers["load.dup_plan_key_share"] = 1 - float64(len(plan))/n
	}
	w.mu.Unlock()

	cache := w.engine.Stats().Cache
	if total := cache.Hits + cache.Misses; total > 0 {
		layers["service.cache_hit_ratio"] = float64(cache.Hits) / float64(total)
	}

	var direct []float64
	for _, j := range w.warmJobs {
		snap := w.snaps[j.snap]
		start := time.Now()
		job, err := w.engine.Submit(service.JobSpec{
			Model:    service.ModelSpec{Name: snap.name, Dim: w.e.sc.ServiceDim, Seed: snap.seed, Snapshot: snap.raw},
			Strategy: j.strategy, MaxQueries: j.maxQ, Seed: j.seed, Precision: j.precision,
		})
		if err != nil {
			continue
		}
		ch, cancel := job.Subscribe()
		for range ch {
		}
		cancel()
		direct = append(direct, ms(time.Since(start)))
	}
	layers["service.engine_submit_to_terminal_ms"] = median(direct)
}
