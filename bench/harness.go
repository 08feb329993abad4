package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/synth"
)

// scale fixes every size of a run. benchScale is the benchmark of record;
// selftestScale shrinks the same code to a sub-second smoke run.
type scale struct {
	Graph synth.Config
	// Trained fleet = TransE/DistMult/ComplEx at TrainedDim, FleetEpochs
	// epochs; full fleet adds RotatE/RESCAL/TuckER/ConvE at UntrainedDim,
	// untrained (scoring cost does not depend on weight values, and one
	// TuckER epoch costs minutes).
	TrainedDim, UntrainedDim, FleetEpochs int
	// Service snapshots: the trained architectures at ServiceDim, saved
	// after each of ServiceEpochs epochs.
	ServiceDim, ServiceEpochs int
	SampledQueries            int   // estimate_sampled: queries ranked per op
	SliceQueries              int   // full_ranking window / cold_start slice
	RefQueries                int   // slice the sampled estimates are held against full ranking on
	OracleQueries             int   // queries the naive oracle re-ranks per model
	JobSizes                  []int // service max_queries classes
	KernelQueries             int   // queries per micro-kernel call
	StreamBytes               int   // cap on one roofline stream array
	SetupReps                 int   // set-ups per untraced run; setup_s takes their median
	// CanaryRefMS is the canary's sample time on the reference machine: this
	// sandbox class in a calm minute. Time-based end-to-end metrics are
	// reported at that speed (canary.go).
	CanaryRefMS float64
}

func benchScale(seed int64) scale {
	g := synth.WikiKG2Sim()
	g.Seed = seed
	return scale{
		Graph:      g,
		TrainedDim: 128, UntrainedDim: 64, FleetEpochs: 1,
		ServiceDim: 64, ServiceEpochs: 2,
		SampledQueries: 1024, SliceQueries: 256, RefQueries: 512, OracleQueries: 32,
		JobSizes: []int{32, 64, 128}, KernelQueries: 32,
		StreamBytes: 128 << 20, SetupReps: 3, CanaryRefMS: 10,
	}
}

func selftestScale(seed int64) scale {
	g := synth.CoDExSSim()
	g.Seed = seed
	return scale{
		Graph:      g,
		TrainedDim: 16, UntrainedDim: 8, FleetEpochs: 1,
		ServiceDim: 8, ServiceEpochs: 2,
		SampledQueries: 128, SliceQueries: 32, RefQueries: 64, OracleQueries: 4,
		JobSizes: []int{8, 16, 32}, KernelQueries: 4,
		StreamBytes: 1 << 20, SetupReps: 1, CanaryRefMS: 0.02,
	}
}

// env is what every workload's set-up starts from: the generated host graph
// and its filter index. Only generated inputs reach the program.
type env struct {
	sc     scale
	seed   int64
	g      *kg.Graph
	filter *kg.FilterIndex
	ns     int // n_s = |E|/10, the paper's 10 % budget
	// rec records the set-up and ladder spans; nil when the run is untraced.
	rec *recorder
	// setupMS sums those spans by name, for the per-layer set-up rungs.
	setupMS map[string]float64
	ops     *atomic.Int64
	probe   kgc.Model // the ladder's probe model, built on first use
}

// timed runs f under a span outside any op and books its duration by name.
func (e *env) timed(name string, f func()) time.Duration {
	id := e.rec.start(name, 0, 0)
	start := time.Now()
	f()
	d := time.Since(start)
	e.rec.end(id, 0)
	e.setupMS[name] += ms(d)
	return d
}

func newEnv(sc scale, seed int64, rec *recorder, ops *atomic.Int64) (*env, error) {
	e := &env{sc: sc, seed: seed, rec: rec, setupMS: map[string]float64{}, ops: ops}
	var err error
	e.timed("synth.Generate", func() {
		var ds *synth.Dataset
		if ds, err = synth.Generate(sc.Graph); err == nil {
			e.g = ds.Graph
		}
	})
	if err != nil {
		return nil, err
	}
	e.timed("kg.NewFilterIndex", func() {
		e.filter = kg.NewFilterIndex(e.g.Train, e.g.Valid, e.g.Test)
	})
	e.ns = e.g.NumEntities / 10
	return e, nil
}

// opts are the evaluation options of round r: the sampling seed derives from
// the run seed, so a fixed -seed repeats every pool.
func (e *env) opts(round int) eval.Options {
	return eval.Options{Filter: e.filter, Seed: e.seed*1000 + int64(round)}
}

// buildModels constructs the named architectures at dim and, when train is
// set, trains each for epochs. It returns the models and the time spent
// training; afterEpoch, when non-nil, is called after every epoch of model i.
func (e *env) buildModels(names []string, dim, epochs int, train bool,
	afterEpoch func(i, epoch int, m kgc.Model)) ([]kgc.Model, time.Duration, error) {
	models := make([]kgc.Model, len(names))
	var trainTime time.Duration
	for i, name := range names {
		m, err := kgc.New(name, e.g, dim, e.seed*10+int64(i))
		if err != nil {
			return nil, 0, err
		}
		if train && epochs > 0 {
			cfg := kgc.DefaultTrainConfig()
			cfg.Epochs = epochs
			cfg.Seed = e.seed
			if afterEpoch != nil {
				cfg.EpochCallback = func(epoch int) bool { afterEpoch(i, epoch, m); return true }
			}
			trainTime += e.timed("kgc.Train", func() { kgc.Train(m, e.g, cfg) })
		}
		models[i] = m
	}
	return models, trainTime, nil
}

// buildFleet returns the full fleet; fleet[:len(trainedNames)] is the
// trained fleet.
func (e *env) buildFleet(train bool) ([]kgc.Model, time.Duration, error) {
	trained, tt, err := e.buildModels(trainedNames, e.sc.TrainedDim, e.sc.FleetEpochs, train, nil)
	if err != nil {
		return nil, 0, err
	}
	rest, _, err := e.buildModels(untrainedNames, e.sc.UntrainedDim, 0, false, nil)
	if err != nil {
		return nil, 0, err
	}
	return append(trained, rest...), tt, nil
}

// window returns the round's contiguous width-query window of split; the
// offset advances by one window per round and wraps.
func window(split []kg.Triple, width, round int) []kg.Triple {
	if width >= len(split) {
		return split
	}
	off := (round % (len(split) / width)) * width
	return split[off : off+width]
}

// opResult is what one op reports back to the runner. An op is one
// evaluation request: one Estimate / EstimateMany / FullEvaluate call, or one
// service job from POST to its terminal SSE done event.
type opResult struct {
	class  string
	dur    time.Duration
	cands  int64
	stages eval.StageTimings // summed over the op's results; zero for service jobs
	mrrs   []float64         // MRR returned per model, kept for the fidelity check
	err    error             // an error, a non-succeeded job or a failed per-op check
}

// checkResult is the per-op check every workload shares: the pass ranked
// the triples it was asked to (a head and a tail query each), scored the
// candidates the protocol implies, and returned a usable MRR.
func checkResult(res eval.Result, triples int, wantCands int64) error {
	switch {
	case res.Queries != 2*triples:
		return fmt.Errorf("ranked %d queries, want %d", res.Queries, 2*triples)
	case wantCands > 0 && res.CandidatesScored != wantCands:
		return fmt.Errorf("scored %d candidates, want %d", res.CandidatesScored, wantCands)
	case !(res.MRR > 0 && res.MRR <= 1):
		return fmt.Errorf("MRR %v outside (0, 1]", res.MRR)
	}
	return nil
}

func addStages(a *eval.StageTimings, b eval.StageTimings) {
	a.PlanCompile += b.PlanCompile
	a.PoolDraw += b.PoolDraw
	a.Score += b.Score
	a.RankMerge += b.RankMerge
}

// layerSet collects per-layer values by name; names not set read 0.
type layerSet map[string]float64

// workload is one user journey. The runner owns the clock and the round
// loop; the workload owns what an op is.
type workload interface {
	// build is the workload's own part of set-up on a fresh env — fleet,
	// Fit, engine start. With train false the models stay untrained (the
	// repeated set-ups that only feed setup_s). It returns the time spent
	// in kgc.Train.
	build(e *env, train bool) (time.Duration, error)
	close()
	// clients is the number of concurrent callers a round drives the
	// program with: 1 for the library workloads.
	clients() int
	// round runs one whole round: one op per class, fixed order.
	round(r int, rec *recorder) []opResult
	// verify runs after the timed window: it holds the MRRs the warm-up
	// round returned against their reference and runs the workload's global
	// checks. It returns the mean absolute MRR error and any failed check.
	verify(warm []opResult, layers layerSet) (float64, []string)
	// ladder measures the rungs below this workload on its own inputs; ops
	// are the timed window's ops, for the rungs read off their durations.
	ladder(ops []opResult, layers layerSet)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "estimate_sampled":
		return &estimateSampled{}, nil
	case "full_ranking":
		return &fullRanking{}, nil
	case "service_small_jobs":
		return &serviceSmallJobs{}, nil
	case "cold_start":
		return &coldStart{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the driver's contract: the last line of a run's stdout.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // timed window; whole rounds run until it has elapsed
	Trace    bool
	Scale    scale
	OutDir   string // where the traced run writes <workload>.trace.json; "" = nowhere
	Log      func(format string, args ...any)
}

// lane is one side (untraced or traced) of the timed window.
type lane struct {
	walls []float64 // seconds, one per round
	ops   []opResult
}

func (l *lane) wall() (sum float64) {
	for _, w := range l.walls {
		sum += w
	}
	return sum
}

// throughput estimates the lane's steady rates from medians, so that a
// stall of the sandbox during one op or one round does not set the figure:
// ops (and candidates) per round over the typical round time. With one
// caller a round is its ops back to back, and the typical round is the sum,
// over classes, of the class's median duration across rounds. With
// concurrent clients op durations overlap, so it is the median round wall.
func (l *lane) throughput(clients int) (opsPerS, candsPerS float64) {
	byClass := map[string][]float64{}
	var ok, cands float64
	for _, o := range l.ops {
		if o.err == nil {
			byClass[o.class] = append(byClass[o.class], o.dur.Seconds())
			ok++
			cands += float64(o.cands)
		}
	}
	typical := median(l.walls)
	if clients == 1 {
		typical = 0
		for _, d := range byClass {
			typical += median(d)
		}
	}
	rounds := float64(len(l.walls))
	return ratio(ok/rounds, typical), ratio(cands/rounds, typical)
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setUp builds one env and one workload on it, returning the time spent
// training and the time spent on everything else.
func setUp(cfg runConfig, rec *recorder, ops *atomic.Int64, train bool) (*env, workload, time.Duration, time.Duration, error) {
	start := time.Now()
	e, err := newEnv(cfg.Scale, cfg.Seed, rec, ops)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	trainTime, err := w.build(e, train)
	if err != nil {
		w.close()
		return nil, nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, w, trainTime, time.Since(start) - trainTime, nil
}

// runWorkload is one run of one workload: set-up, one untimed warm-up round,
// whole timed rounds for cfg.Seconds, then the correctness checks. With
// cfg.Trace the timed rounds alternate traced and untraced so the span
// overhead is measured inside the run, and the ladder probes follow.
func runWorkload(cfg runConfig) (runResult, error) {
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	var ops atomic.Int64
	// The canary is sampled at every boundary of the run — around set-up,
	// after every round — so its median sees the same minutes the metrics do.
	const canarySamples = 5
	can := newCanary(cfg.Scale.Graph.NumEntities, cfg.Scale.TrainedDim, cfg.Seed)
	can.sample(canarySamples)
	e, w, trainTime, restTime, err := setUp(cfg, rec, &ops, true)
	if err != nil {
		return runResult{}, err
	}
	defer w.close()
	can.sample(canarySamples)

	warm := w.round(0, nil)
	can.sample(canarySamples)
	logf("set-up done (training %.2fs, rest %.3fs); warm-up round: %d ops", trainTime.Seconds(), restTime.Seconds(), len(warm))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var plain, traced lane
	lanes := []*lane{&plain}
	if cfg.Trace {
		lanes = []*lane{&traced, &plain}
	}
	round, window := 1, cfg.Seconds
	for {
		for _, l := range lanes {
			r := (*recorder)(nil)
			if l == &traced {
				r = rec
			}
			start := time.Now()
			res := w.round(round, r)
			l.walls = append(l.walls, time.Since(start).Seconds())
			l.ops = append(l.ops, res...)
			round++
			can.sample(canarySamples)
		}
		// Whole rounds only; stop at the count that comes closest to the
		// window rather than always overshooting it by up to a round.
		elapsed := plain.wall() + traced.wall()
		if elapsed+elapsed/float64(2*len(plain.walls)) >= window {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()

	all := append(append([]opResult(nil), plain.ops...), traced.ops...)
	attempted, failed := len(all), 0
	var problems []string
	for _, o := range all {
		if o.err != nil {
			failed++
			if len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("op %s: %v", o.class, o.err))
			}
		}
	}
	for _, o := range warm {
		if o.err != nil {
			problems = append(problems, fmt.Sprintf("warm-up op %s: %v", o.class, o.err))
		}
	}

	layers := layerSet{}
	refStart := time.Now()
	absErr, verr := w.verify(warm, layers)
	refS := time.Since(refStart).Seconds()
	problems = append(problems, verr...)
	for _, p := range problems {
		logf("CHECK FAILED: %s", p)
	}

	res := runResult{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !cfg.Trace {
		// Set-up again, after the window so that neither its garbage nor its
		// resident set is charged to the workload: everything but the
		// training, thrown away at once. setup_s = the one training time +
		// the median of the rest.
		rest := []float64{restTime.Seconds()}
		for len(rest) < cfg.Scale.SetupReps {
			_, wi, _, d, err := setUp(cfg, nil, &ops, false)
			if err != nil {
				return runResult{}, err
			}
			wi.close()
			rest = append(rest, d.Seconds())
			can.sample(canarySamples)
		}
		// slow > 1: this run's machine was slower than the reference, so its
		// times shrink and its rates grow by that factor.
		slow := median(can.samples) / cfg.Scale.CanaryRefMS
		opsPerS, candsPerS := plain.throughput(w.clients())
		var durs []float64
		for _, o := range plain.ops {
			if o.err == nil {
				durs = append(durs, ms(o.dur))
			}
		}
		values := map[string]float64{
			"setup_s":         (trainTime.Seconds() + median(rest)) / slow,
			"ops_per_s":       opsPerS * slow,
			"cands_per_s":     candsPerS * slow,
			"op_p50_ms":       median(durs) / slow,
			"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(max(attempted-failed, 1)),
			"peak_rss_mb":     rss,
			"mrr_fidelity":    1 - absErr,
			"success_ratio":   1 - float64(failed)/float64(attempted),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
		logf("%d rounds, %d ops (%d failed) in %.2fs; op p50 over n=%d; set-up rest median of %d",
			len(plain.walls), attempted, failed, plain.wall(), len(durs), len(rest))
		logf("canary %.3f ms (n=%d, reference %.3g ms): times ÷ %.4f, rates × %.4f; raw setup_s %.4f ops_per_s %.4f cands_per_s %.6g op_p50_ms %.4f",
			median(can.samples), len(can.samples), cfg.Scale.CanaryRefMS, slow, slow,
			trainTime.Seconds()+median(rest), opsPerS, candsPerS, median(durs))
		return res, nil
	}

	// Traced run: the load canaries, the span-derived rungs, then the probes.
	var durs []float64
	stages := eval.StageTimings{}
	for _, o := range all {
		if o.err == nil {
			durs = append(durs, ms(o.dur))
			addStages(&stages, o.stages)
		}
	}
	layers["load.op_p90_ms"] = quantile(durs, 0.9)
	layers["load.ops"] = float64(attempted)
	layers["load.rounds"] = float64(len(plain.walls) + len(traced.walls))
	layers["load.fail_ratio"] = float64(failed) / float64(attempted)
	layers["load.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	layers["load.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	layers["load.reference_s"] = refS
	layers["machine.canary_ms"] = median(can.samples)
	plainRate, _ := plain.throughput(w.clients())
	if tracedRate, _ := traced.throughput(w.clients()); tracedRate > 0 {
		layers["load.span_overhead_pct"] = 100 * (plainRate/tracedRate - 1)
	}
	layers["core.mrr_abs_err"] = absErr
	layers["synth.generate_ms"] = e.setupMS["synth.Generate"]
	layers["kg.filter_index_ms"] = e.setupMS["kg.NewFilterIndex"]
	if total := stages.PlanCompile + stages.PoolDraw + stages.Score + stages.RankMerge; total > 0 {
		layers["eval.stage_share.plan_compile"] = float64(stages.PlanCompile) / float64(total)
		layers["eval.stage_share.pool_draw"] = float64(stages.PoolDraw) / float64(total)
		layers["eval.stage_share.score"] = float64(stages.Score) / float64(total)
		layers["eval.stage_share.rank_merge"] = float64(stages.RankMerge) / float64(total)
	}
	logf("traced rounds done (%d ops, n=%d for p90); running the ladder", attempted, len(durs))
	ladderCommon(e, layers, logf)
	w.ladder(all, layers)
	layers["core.fit_ms"] = e.setupMS["Framework.Fit"] // set-up's Fit, or the ladder's on cold_start

	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
		res.Metrics[d.Name] = metric{Value: layers[d.Name], Unit: d.Unit}
	}
	for name := range layers {
		if !known[name] {
			return res, fmt.Errorf("per-layer metric %q is not declared in names.go", name)
		}
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return res, err
		}
		path := filepath.Join(cfg.OutDir, cfg.Workload+".trace.json")
		if err := writeTrace(path, cfg.Workload, cfg.Seed, rec.finish()); err != nil {
			return res, err
		}
		logf("trace written to %s", path)
	}
	return res, nil
}

// peakRSSMB is this process's high-water resident set (Linux ru_maxrss is
// in KiB). Each workload runs in its own process, so set-up and the timed
// window of one workload are all it has seen.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation (0 for an
// empty sample). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// classMedians writes the median duration of the succeeded ops of each class
// under prefix+class, for the classes keep admits (it maps a class to its
// metric suffix, or "" to skip it).
func classMedians(ops []opResult, layers layerSet, prefix string, keep func(class string) string) {
	by := map[string][]float64{}
	for _, o := range ops {
		if suffix := keep(o.class); suffix != "" && o.err == nil {
			by[suffix] = append(by[suffix], ms(o.dur))
		}
	}
	for suffix, d := range by {
		layers[prefix+suffix] = median(d)
	}
}

// medianOf runs f reps times and returns the median wall time.
func medianOf(reps int, f func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		start := time.Now()
		f()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d))
}
