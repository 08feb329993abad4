// Package eval implements the ranking evaluation protocols at the heart of
// the paper: the standard *full filtered* protocol that scores every entity
// for every query (O(|E|²) overall), and the *sampled* protocols that rank
// the true answer inside a small per-relation candidate pool instead.
//
// The three sampling strategies compared throughout the paper's experiments
// are provided as CandidateProviders:
//
//	Random        — n_s entities uniformly from E (the ogbl-wikikg2 style
//	                protocol the paper shows to be overly optimistic);
//	Static        — uniform from the thresholded candidate sets of a
//	                relation recommender (§4.1 "Static");
//	Probabilistic — weighted without replacement by recommender scores
//	                (§4.1 "Probabilistic").
//
// All sampled strategies draw one pool per (relation, direction) — 2·|R|
// sampling events per evaluation, the paper's key complexity reduction. The
// samplers (package sample) return ascending ids in one O(n) sweep, so a
// drawn pool is never sorted; every pool of a plan reads the same seeded
// stream in the same order, and what a Probabilistic draw does after its
// last read runs on every worker (plan.draw), so the pools are the same
// on any number of them. A plan's pool set is thus a value, a function of
// strategy, n_s, seed and the plan's relations alone: a provider that
// remembers plans (PoolMemo, owned by a fitted core.Framework) hands newPlan
// the slices an earlier plan with that key drew, and the next model on the
// same ground skips the samplings.
//
// Execution is organized around the same unit the complexity argument is
// about: the pool. A pass compiles the split into a relation-grouped plan
// (plan.go) — queries bucketed per relation, pools in flat slices — cut into
// tasks: runs of triples whose queries rank against the same pool. A task is
// scored as a block of up to 64 directed queries swept over its pool once, in
// strips: kgc.BatchScorer scores the block against a few hundred candidates,
// a kernel tile at a time, and the strip is ranked before the next is scored,
// so the score buffer is block × strip whatever the pool's size. Queries
// share a block when their pools are the same slice (samePool): never for
// drawn samples — a sampled task is one relation's tail block, then its head
// block — always under the full protocol, whose blocks mix relations and both
// directions and so read the entity table once per 64 queries. EvaluateMany
// reuses a single plan across many models, amortizing pool construction.
//
// Ranking a strip is the rank merge (blockQuery.count): every score of the
// strip is compared with the true triple's score — countGo, or on AVX2 its
// vector twin (count_amd64.s), eight scores a step — and then what the answer
// and the known positives inside the strip added is taken back. On the
// 512-bit lane the strip holds approximate scores within a proven bound
// (kgc.BatchScorer.RankBlock): the compare is then against a window around
// the true triple's score, and what falls inside it is rescored exactly
// (count.go proves why the ranks stay exact). Each of them
// is one lookup in a position index of the block's pool (poolIndex: 1 plus
// the first index of each id), which the worker fills once per block and
// clears when the block ends. The index is |E|·4 bytes per worker, 48 KB at
// 12 000 entities, and is kept across blocks and passes.
package eval

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/obs/trace"
)

// Metrics are the standard filtered ranking metrics.
type Metrics struct {
	MRR     float64
	Hits1   float64
	Hits3   float64
	Hits10  float64
	MR      float64 // mean rank
	Queries int
}

// Result is the outcome of one evaluation pass.
type Result struct {
	Metrics
	// Elapsed is the wall-clock evaluation time, including candidate pool
	// construction and scoring, excluding index/recommender fitting.
	Elapsed time.Duration
	// CandidatesScored counts entity scorings performed, the evaluation's
	// true workload.
	CandidatesScored int64
	// Stages breaks Elapsed down by pipeline stage; see StageTimings.
	Stages StageTimings
}

// StageTimings is the per-stage breakdown of one evaluation pass — the
// observability counterpart of the paper's complexity argument, showing
// where a pass actually spends its time.
//
// PlanCompile and PoolDraw are wall-clock and paid once per plan: the compile
// on the calling goroutine, the draw on as many of Options.Workers as it can
// use (see PoolDraw). Score and RankMerge are summed across worker
// goroutines, so on a parallel pass they measure CPU time and can exceed
// Elapsed.
type StageTimings struct {
	// PlanCompile covers grouping the split by relation and chunking the
	// groups into batch tasks.
	PlanCompile time.Duration
	// PoolDraw covers the 2·|R| candidate pool samplings, start to join. The
	// rng reads of every pool are made in one fixed order on one stream; a
	// Probabilistic draw's keying, selection and emission, most of its cost,
	// run off that stream on up to Workers goroutines, and every other
	// provider's draw on one. The pools do not depend on Workers. When they
	// came out of a PoolMemo nothing was drawn and this is the lookup's wall
	// time; the eval.pool_draw span then says cached=true, workers=0.
	PoolDraw time.Duration
	// Score covers model scoring: building each block's queries, true-triple
	// scoring and the tile-fed batch kernels over every strip.
	Score time.Duration
	// RankMerge covers rank counting, strip by strip: the vector compare of
	// every score with the true triple's, then the correction for the answer
	// and the known positives, each looked up in the pool's position index.
	// Filling that index before a block's sweep and clearing it after are
	// booked here too, and so is the exact rescoring of the candidates an
	// approximate score could not place.
	RankMerge time.Duration
}

// Options configure an evaluation pass.
type Options struct {
	// Filter is the known-positive index for the filtered protocol. When
	// nil, one is built over train+valid+test (and its construction is NOT
	// counted in Elapsed).
	Filter *kg.FilterIndex
	// Workers is the evaluation parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxQueries, when > 0, evaluates only the first MaxQueries triples of
	// the split (after a deterministic shuffle with Seed). Used to bound
	// experiment cost on large splits.
	MaxQueries int
	// Seed drives candidate sampling and the MaxQueries subsample. This
	// package uses it as given, 0 included; core.Framework's Estimate methods
	// read 0 as "the framework's seed".
	Seed int64
	// Precision selects the embedding-store precision the executor reads
	// candidate (and answer) entities at. The zero value, Float64, is
	// the bit-exact reference and reads candidate rows from the weight table
	// itself; Float32 and Int8 read a reduced copy of the entity table built
	// beside the float64 weights, which stay because query building reads
	// them (store.CopyBytes is the copy's size). So they cost memory rather
	// than save it; what they buy, for a bounded metric deviation (< 1e-3 MRR
	// on this repo's equivalence gate), is 2×/4× fewer candidate bytes read
	// per pass, dequantized one kernel tile at a time into the same kernels.
	// Ignored for plain third-party Models (no native batch lane), which
	// always score at float64 through their own methods.
	Precision store.Precision
	// Ctx, when non-nil, allows cancelling an evaluation mid-pass, between
	// two strips. On cancellation Evaluate returns early with metrics over
	// the queries completed so far (Result.Queries is the partial count).
	//
	// Ctx also carries the trace span, if any (obs/trace.ContextWith): when
	// present, the pass records a span tree under it — plan compile, pool
	// draw (with the goroutines it ran on), one pass span per model, and per-task "eval.chunk" child spans with
	// relations/queries/pool/strips/precision attributes. Without a span in Ctx the
	// tracing call sites reduce to nil-pointer checks.
	Ctx context.Context
	// Progress, when non-nil, is invoked after each evaluated triple with
	// the number of triples completed and the total. It is called
	// concurrently from worker goroutines and must be safe for that.
	Progress func(done, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CandidateProvider supplies the negative candidate pool for ranking queries
// on a relation in one direction. Providers are consulted once per
// (relation, direction) per evaluation pass.
type CandidateProvider interface {
	// Name identifies the strategy ("Random", "Static", "Probabilistic", "Full").
	Name() string
	// Candidates returns the candidate entity pool for queries (·, r, ?)
	// when tail is true, or (?, r, ·) otherwise. The returned slice must be
	// sorted ascending; the evaluation plan retains it for the duration of
	// the pass, so providers must return either a fresh slice or a stable
	// shared one, never a reused scratch buffer.
	//
	// Candidates must be safe for concurrent callers that each pass their
	// own rng: one provider may serve several passes at once, so any state
	// it builds lazily has to be built under synchronization.
	Candidates(r int32, tail bool, rng *rand.Rand) []int32
}

// Evaluate runs the filtered ranking protocol for the model over the split,
// drawing candidate pools from the provider. Every triple contributes two
// queries: a tail query (h, r, ?) ranked against the provider's range pool
// and a head query (?, r, t) ranked against its domain pool.
//
// Execution is relation-grouped: the split is partitioned by relation, each
// relation's pools are drawn once (2·|R| sampling events), and queries that
// rank against the same pool are scored in blocks over the pool's candidate
// tiles (kgc.BatchScorer; see the package comment). Any kgc.Model is accepted: the built-in models score
// through the store-backed batch lane, a plain third-party Model through an
// adapter that loops its own ScoreTails/ScoreHeads per query and strip.
//
// Evaluate is EvaluateMany over a fleet of one, with the plan's construction
// time counted in Elapsed.
func Evaluate(m kgc.Model, g *kg.Graph, split []kg.Triple, provider CandidateProvider, opts Options) Result {
	res := EvaluateMany([]kgc.Model{m}, g, split, provider, opts)[0]
	res.Elapsed += res.Stages.PlanCompile + res.Stages.PoolDraw
	return res
}

// EvaluateMany runs the protocol for several models over one shared plan:
// the split is grouped and every candidate pool drawn exactly once, then
// each model executes over the identical pools. This amortizes pool
// construction across a model fleet — the model-selection-during-training
// workload — and guarantees the models are ranked on the same ground.
//
// results[i] corresponds to ms[i]; per-model Elapsed covers that model's
// scoring only (the shared plan construction is the amortized part: every
// model's Stages carry the same one-time compile/draw cost alongside its own
// scoring). The Progress hook sees one monotone counter across all models,
// with total = len(ms) × len(queries). Cancellation via Options.Ctx stops
// mid-model and skips the models not yet started, leaving their Results zero.
func EvaluateMany(ms []kgc.Model, g *kg.Graph, split []kg.Triple, provider CandidateProvider, opts Options) []Result {
	if opts.Filter == nil {
		opts.Filter = kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	queries := subsample(split, opts)
	traceID := trace.FromContext(opts.Ctx).TraceID()
	p := newPlan(queries, provider, opts)
	observePlan(p, traceID)
	results := make([]Result, len(ms))
	var done atomic.Int64
	for i, m := range ms {
		if opts.Ctx.Err() != nil {
			break
		}
		results[i] = runPass(m, p, opts, g.NumEntities, len(ms)*len(queries), &done)
		observePass(results[i], traceID)
	}
	return results
}

// blockQuery is one directed query of a block while its pool is swept, one
// strip at a time in pool order (count); the counters are integers, so where
// the strips are cut does not show in the rank.
type blockQuery struct {
	slot         int     // index into pass.ranks: 2·query for the tail side, +1 for the head side
	truth        int32   // the answer entity
	score        float64 // the true triple's score
	known        []int32 // known positives (sorted, the FilterIndex layout) the sweep has not passed
	better, ties int
}

// rank is the filtered rank once the whole pool has been counted:
// 1 + #{strictly better} + #{ties}/2 (LibKGE's "realistic" tie policy),
// NaN below every number and tied with NaN.
func (q *blockQuery) rank() float64 {
	return 1 + float64(q.better) + float64(q.ties)/2
}

func metricsFromRanks(ranks []float64) Metrics {
	m := Metrics{}
	for _, r := range ranks {
		if r == 0 { // query skipped by cancellation
			continue
		}
		m.Queries++
		m.MRR += 1 / r
		m.MR += r
		if r <= 1 {
			m.Hits1++
		}
		if r <= 3 {
			m.Hits3++
		}
		if r <= 10 {
			m.Hits10++
		}
	}
	if m.Queries == 0 {
		return m
	}
	n := float64(m.Queries)
	m.MRR /= n
	m.MR /= n
	m.Hits1 /= n
	m.Hits3 /= n
	m.Hits10 /= n
	return m
}

// Hits returns the Hits@k value for k in {1, 3, 10}.
func (m Metrics) Hits(k int) (float64, error) {
	switch k {
	case 1:
		return m.Hits1, nil
	case 3:
		return m.Hits3, nil
	case 10:
		return m.Hits10, nil
	}
	return 0, fmt.Errorf("eval: Hits@%d not tracked", k)
}
