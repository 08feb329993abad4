package eval

import "kgeval/internal/obs"

// The eval package's instruments live in obs.Default: evaluation passes run
// inside library calls (CLIs, the service engine, experiments), and one
// process-wide registry lets every entry point share the same trajectory.
// Servers expose them by mounting obs.Handler(..., obs.Default).
//
// All labeled series are resolved to concrete handles once, here, at
// package init. This is an invariant of the observation path, not a style
// choice: Registry lookups take the registry mutex and build a label
// signature per call, so re-resolving "kgeval_eval_stage_seconds"{stage=X}
// on every Observe would put a lock and an allocation inside
// the per-pass hot path. Observations through a cached *Histogram handle
// are a few atomic adds.
type evalInstruments struct {
	stagePlan  *obs.Histogram
	stagePool  *obs.Histogram
	stageScore *obs.Histogram
	stageRank  *obs.Histogram

	poolPlansHit, poolPlansMiss *obs.Counter

	passSeconds     *obs.Histogram
	passesTotal     *obs.Counter
	queriesTotal    *obs.Counter
	candidatesTotal *obs.Counter
	rescoredTotal   *obs.Counter
}

func newEvalInstruments(reg *obs.Registry) *evalInstruments {
	stageHelp := "Time per evaluation pipeline stage, in seconds. plan_compile and pool_draw are wall-clock per plan (the draw is spread over the evaluation workers for the Probabilistic strategy and runs on one otherwise); score and rank_merge are CPU time summed across workers per pass."
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("kgeval_eval_stage_seconds", stageHelp, obs.DurationBuckets, obs.Label{Key: "stage", Value: name})
	}
	poolPlans := func(outcome string) *obs.Counter {
		return reg.Counter("kgeval_eval_pool_plans_total",
			"Compiled plans by where their 2·|R| candidate pools came from: hit = a fitted Framework's pool memo had the set an earlier plan drew (same strategy, n_s, seed and relations); miss = drawn (every plan without a memo — the full protocol, a bare provider — is one).",
			obs.Label{Key: "outcome", Value: outcome})
	}
	return &evalInstruments{
		poolPlansHit: poolPlans("hit"), poolPlansMiss: poolPlans("miss"),
		stagePlan:  stage("plan_compile"),
		stagePool:  stage("pool_draw"),
		stageScore: stage("score"),
		stageRank:  stage("rank_merge"),
		passSeconds: reg.Histogram("kgeval_eval_pass_seconds",
			"Wall-clock time of one model's scoring pass over a compiled plan (plan compile and pool draw are in kgeval_eval_stage_seconds).", obs.DurationBuckets),
		passesTotal: reg.Counter("kgeval_eval_passes_total",
			"Evaluation passes completed (one per model per Evaluate/EvaluateMany call)."),
		queriesTotal: reg.Counter("kgeval_eval_queries_total",
			"Ranking queries evaluated (two per triple: tail and head)."),
		candidatesTotal: reg.Counter("kgeval_eval_candidates_scored_total",
			"Candidate entity scorings performed — the evaluation's true workload."),
		rescoredTotal: reg.Counter("kgeval_eval_candidates_rescored_total",
			"Candidates the rank count scored a second time, exactly, because an approximate score (the 512-bit lane's certified dot, L1 or RotatE kernel) lay too close to the true triple's to settle its rank, or no error bound held. Always 0 on the avx2 and go lanes."),
	}
}

var instruments = newEvalInstruments(obs.Default)

// observePlan records the one-time setup stages of a compiled plan. A
// non-empty traceID attaches an OpenMetrics exemplar linking the histogram
// observation back to the trace that produced it. The pool_draw histogram
// holds real draws only: a plan served from a PoolMemo just counts as a hit.
func observePlan(p *plan, traceID string) {
	instruments.stagePlan.ObserveExemplar(p.compileTime.Seconds(), traceID)
	if p.poolsCached {
		instruments.poolPlansHit.Inc()
		return
	}
	instruments.poolPlansMiss.Inc()
	instruments.stagePool.ObserveExemplar(p.poolTime.Seconds(), traceID)
}

// observePass records one model pass: its scoring/ranking stage split and
// the pass-level throughput counters, with exemplars when traced.
func observePass(res Result, traceID string) {
	instruments.stageScore.ObserveExemplar(res.Stages.Score.Seconds(), traceID)
	instruments.stageRank.ObserveExemplar(res.Stages.RankMerge.Seconds(), traceID)
	instruments.passSeconds.ObserveExemplar(res.Elapsed.Seconds(), traceID)
	instruments.passesTotal.Inc()
	instruments.queriesTotal.Add(int64(res.Queries))
	instruments.candidatesTotal.Add(res.CandidatesScored)
}
