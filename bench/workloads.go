package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
	"kgeval/internal/stats"
)

var strategies = map[string]core.Strategy{
	"R": core.StrategyRandom, "S": core.StrategyStatic, "P": core.StrategyProbabilistic,
}

// fitLWD builds and fits the L-WD framework every sampled workload but
// cold_start evaluates through.
func fitLWD(e *env) (*core.Framework, error) {
	fw := core.New(recommender.NewLWD(), e.ns, e.seed)
	var err error
	e.timed("Framework.Fit", func() { err = fw.Fit(e.g) })
	return fw, err
}

// stageSpans reconstructs, under an op's span, the two serial stages the pass
// reports as wall time — plan compile and the 2·|R| pool draws. Score and
// rank-merge are CPU time summed across workers, not an interval; they stay
// in the parent's self time.
func stageSpans(rec *recorder, parent, op int, start time.Time, st eval.StageTimings) {
	drawn := start.Add(st.PoolDraw)
	rec.add("eval.pool_draw", parent, op, start, drawn)
	rec.add("eval.plan_compile", parent, op, drawn, drawn.Add(st.PlanCompile))
}

func mrrs(rs []eval.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.MRR
	}
	return out
}

// --- estimate_sampled --------------------------------------------------------

// estimateSampled is the paper's steady-state use: a fitted L-WD framework
// estimating every model of the full fleet under every strategy. Classes =
// full fleet × {R, P, S}.
type estimateSampled struct {
	e     *env
	fleet []kgc.Model
	fw    *core.Framework
}

func (w *estimateSampled) build(e *env, train bool) (time.Duration, error) {
	w.e = e
	fleet, tt, err := e.buildFleet(train)
	if err != nil {
		return 0, err
	}
	w.fleet = fleet
	w.fw, err = fitLWD(e)
	return tt, err
}

func (w *estimateSampled) close()       {}
func (w *estimateSampled) clients() int { return 1 }

func (w *estimateSampled) round(r int, rec *recorder) []opResult {
	e := w.e
	slice := window(e.g.Test, e.sc.SampledQueries, r)
	var out []opResult
	for _, m := range w.fleet {
		for _, s := range core.Strategies() {
			op := int(e.ops.Add(1))
			id := rec.start("Framework.Estimate", 0, op)
			start := time.Now()
			res := w.fw.Estimate(m, e.g, slice, s, e.opts(r))
			dur := time.Since(start)
			rec.end(id, res.CandidatesScored)
			stageSpans(rec, id, op, start, res.Stages)
			var want int64
			if s == core.StrategyRandom {
				want = 2 * int64(e.ns) * int64(len(slice))
			}
			out = append(out, opResult{
				class: m.Name() + "/" + s.String(), dur: dur, cands: res.CandidatesScored,
				stages: res.Stages, err: checkResult(res, len(slice), want),
			})
		}
	}
	return out
}

// fidelity holds the sampled estimates of the trained fleet against full
// ranking on one slice: per-strategy mean |MRR error|, the order agreement,
// and how much faster the Static estimate was than the full pass.
type fidelity struct {
	err     map[string]float64 // by strategy name
	kendall float64            // mean of S and P
	speedup float64            // full time / median Static time
}

func measureFidelity(e *env, fw *core.Framework, trained []kgc.Model, slice []kg.Triple) fidelity {
	opts := e.opts(0)
	start := time.Now()
	ref := mrrs(core.FullEvaluateMany(trained, e.g, slice, opts))
	fullTime := time.Since(start)
	f := fidelity{err: map[string]float64{}}
	for name, s := range strategies {
		est := mrrs(fw.EstimateMany(trained, e.g, slice, s, opts))
		f.err[name] = stats.MAE(est, ref)
		if name != "R" {
			f.kendall += stats.KendallTau(est, ref) / 2
		}
	}
	static := medianOf(3, func() { fw.EstimateMany(trained, e.g, slice, core.StrategyStatic, opts) })
	f.speedup = float64(fullTime) / float64(static)
	return f
}

func (f fidelity) record(layers layerSet) {
	for name, v := range f.err {
		layers["core.mrr_abs_err."+name] = v
	}
	layers["core.model_order_kendall"] = f.kendall
	layers["core.speedup_vs_full"] = f.speedup
}

func (w *estimateSampled) verify(warm []opResult, layers layerSet) (float64, []string) {
	e := w.e
	f := measureFidelity(e, w.fw, w.fleet[:len(trainedNames)], window(e.g.Test, e.sc.RefQueries, 0))
	f.record(layers)
	// The paper's qualitative finding: uniform random candidates are the
	// overly optimistic protocol, both recommender-guided ones are closer.
	var problems []string
	for _, s := range []string{"S", "P"} {
		if !(f.err["R"] > f.err[s]) {
			problems = append(problems, fmt.Sprintf("err(R)=%.4f is not above err(%s)=%.4f", f.err["R"], s, f.err[s]))
		}
	}
	return (f.err["S"] + f.err["P"]) / 2, problems
}

func (w *estimateSampled) ladder(ops []opResult, layers layerSet) {
	// One Random-strategy pass per model is an op of this workload already.
	classMedians(ops, layers, "eval.pass_ms.", func(class string) string {
		model, ok := strings.CutSuffix(class, "/R")
		if !ok {
			return ""
		}
		return model
	})
	ladderEval(w.e, w.fw, layers)
}

// --- full_ranking ------------------------------------------------------------

// fullRanking is the exhaustive baseline the estimates replace: the same
// eval/kgc/store layers with pool = all entities. Classes = full fleet.
type fullRanking struct {
	e     *env
	fleet []kgc.Model
}

func (w *fullRanking) build(e *env, train bool) (time.Duration, error) {
	w.e = e
	fleet, tt, err := e.buildFleet(train)
	w.fleet = fleet
	return tt, err
}

func (w *fullRanking) close()       {}
func (w *fullRanking) clients() int { return 1 }

func (w *fullRanking) round(r int, rec *recorder) []opResult {
	e := w.e
	slice := window(e.g.Test, e.sc.SliceQueries, r)
	want := 2 * int64(e.g.NumEntities) * int64(len(slice))
	var out []opResult
	for _, m := range w.fleet {
		op := int(e.ops.Add(1))
		id := rec.start("core.FullEvaluate", 0, op)
		start := time.Now()
		res := core.FullEvaluate(m, e.g, slice, e.opts(r))
		dur := time.Since(start)
		rec.end(id, res.CandidatesScored)
		stageSpans(rec, id, op, start, res.Stages)
		out = append(out, opResult{
			class: m.Name(), dur: dur, cands: res.CandidatesScored,
			stages: res.Stages, err: checkResult(res, len(slice), want),
		})
	}
	return out
}

// verify re-ranks a few queries per model with the naive oracle; full
// ranking has no sampling, so the two must agree to rounding.
func (w *fullRanking) verify(warm []opResult, layers layerSet) (float64, []string) {
	e := w.e
	slice := window(e.g.Test, e.sc.OracleQueries, 0)
	var problems []string
	sum := 0.0
	for _, m := range w.fleet {
		got := core.FullEvaluate(m, e.g, slice, e.opts(0)).MRR
		want := oracleMRR(m, e.filter, slice, e.g.NumEntities)
		d := math.Abs(got - want)
		sum += d
		if d > 1e-9 {
			problems = append(problems, fmt.Sprintf("%s: FullEvaluate MRR %.12f, naive oracle %.12f", m.Name(), got, want))
		}
	}
	return sum / float64(len(w.fleet)), problems
}

func (w *fullRanking) ladder(ops []opResult, layers layerSet) {
	classMedians(ops, layers, "eval.full_pass_ms.", func(class string) string { return class })
}

// --- cold_start --------------------------------------------------------------

// coldStart is the one-shot CLI / first-job-per-key journey: build a
// framework, fit it, estimate the trained fleet once. Classes = recommenders
// × {S, P}.
type coldStart struct {
	e       *env
	trained []kgc.Model
}

func (w *coldStart) build(e *env, train bool) (time.Duration, error) {
	w.e = e
	trained, tt, err := e.buildModels(trainedNames, e.sc.TrainedDim, e.sc.FleetEpochs, train, nil)
	w.trained = trained
	return tt, err
}

func (w *coldStart) close()       {}
func (w *coldStart) clients() int { return 1 }

func (w *coldStart) slice() []kg.Triple { return window(w.e.g.Test, w.e.sc.SliceQueries, 0) }

func (w *coldStart) round(r int, rec *recorder) []opResult {
	e := w.e
	slice := w.slice()
	var out []opResult
	for _, name := range coldRecommenders {
		for _, s := range []core.Strategy{core.StrategyStatic, core.StrategyProbabilistic} {
			op := int(e.ops.Add(1))
			root := rec.start("cold_start.op", 0, op)
			start := time.Now()
			res, err := w.coldEstimate(name, s, slice, r, rec, root, op)
			dur := time.Since(start)
			o := opResult{class: name + "/" + s.String(), dur: dur, err: err}
			for _, one := range res {
				o.cands += one.CandidatesScored
				o.mrrs = append(o.mrrs, one.MRR)
				if o.err == nil {
					o.err = checkResult(one, len(slice), 0)
				}
			}
			// The shared plan's compile and draw are reported on every
			// model's Stages; count them once.
			if len(res) > 0 {
				o.stages = eval.StageTimings{PlanCompile: res[0].Stages.PlanCompile, PoolDraw: res[0].Stages.PoolDraw}
				for _, one := range res {
					o.stages.Score += one.Stages.Score
					o.stages.RankMerge += one.Stages.RankMerge
				}
			}
			rec.end(root, o.cands)
			out = append(out, o)
		}
	}
	return out
}

func (w *coldStart) coldEstimate(name string, s core.Strategy, slice []kg.Triple, r int,
	rec *recorder, parent, op int) ([]eval.Result, error) {
	e := w.e
	id := rec.start("core.New", parent, op)
	rc, err := recommender.ByName(name, e.seed)
	if err != nil {
		return nil, err
	}
	fw := core.New(rc, e.ns, e.seed)
	rec.end(id, 0)
	id = rec.start("Framework.Fit", parent, op)
	err = fw.Fit(e.g)
	rec.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = rec.start("Framework.EstimateMany", parent, op)
	start := time.Now()
	res := fw.EstimateMany(w.trained, e.g, slice, s, e.opts(r))
	rec.end(id, 0)
	if len(res) > 0 {
		stageSpans(rec, id, op, start, res[0].Stages)
	}
	return res, nil
}

func (w *coldStart) verify(warm []opResult, layers layerSet) (float64, []string) {
	e := w.e
	ref := mrrs(core.FullEvaluateMany(w.trained, e.g, w.slice(), e.opts(0)))
	sum, n := 0.0, 0
	for _, o := range warm {
		if len(o.mrrs) == len(ref) {
			sum += stats.MAE(o.mrrs, ref)
			n++
		}
	}
	if n == 0 {
		return 0, []string{"no warm-up op returned a result to check"}
	}
	return sum / float64(n), nil
}

func (w *coldStart) ladder(ops []opResult, layers layerSet) {
	ladderRecommender(w.e, layers)
	ladderCore(w.e, w.trained, w.slice(), layers)
}
