// Package core is the public facade of kgeval: the paper's fast, accurate
// evaluation framework for knowledge-graph link predictors.
//
// Usage mirrors Figure 1 (B) of the paper:
//
//	fw := core.New(recommender.NewLWD(), 200, 42)   // relation recommender + n_s
//	if err := fw.Fit(g); err != nil { ... }          // one-time preprocessing
//	est := fw.Estimate(model, g, g.Valid, core.StrategyProbabilistic, opts)
//	// est.MRR ≈ full filtered MRR, at a fraction of the cost.
//
// The framework is model-agnostic: anything implementing kgc.Model can be
// estimated. Fitting the recommender happens once per graph, and so does
// discretizing its scores into static candidate sets — on the first Static
// request, not in Fit. An Estimate call then performs only 2·|R| candidate
// samplings plus the ranking work on the small pools, and the samplings only
// the first time: a fitted Framework remembers the pool sets its plans drew
// (eval.PoolMemo, an instance of the tree's one single-flight LRU,
// internal/lru; 32 MiB, least recently used first out), so the next model
// with the same strategy, n_s, seed and relations ranks against those slices,
// and concurrent Estimates that want a set nobody has drawn yet draw it once.
package core

import (
	"context"
	"fmt"
	"sync"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
	"kgeval/internal/par"
	"kgeval/internal/recommender"
)

// Strategy selects the candidate sampling strategy (§4.1).
type Strategy int

const (
	// StrategyRandom samples candidates uniformly from all entities — the
	// baseline the paper shows to be overly optimistic.
	StrategyRandom Strategy = iota
	// StrategyStatic samples uniformly inside thresholded recommender
	// candidate sets.
	StrategyStatic
	// StrategyProbabilistic samples weighted by recommender scores without
	// replacement.
	StrategyProbabilistic
)

// String returns the paper's abbreviation: R, S or P.
func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "R"
	case StrategyStatic:
		return "S"
	case StrategyProbabilistic:
		return "P"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all strategies in the paper's column order (R, P, S).
func Strategies() []Strategy {
	return []Strategy{StrategyRandom, StrategyProbabilistic, StrategyStatic}
}

// ParseStrategy maps a paper abbreviation ("R", "P", "S") or full name
// ("random", "probabilistic", "static") to its Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "R", "random":
		return StrategyRandom, nil
	case "P", "probabilistic":
		return StrategyProbabilistic, nil
	case "S", "static":
		return StrategyStatic, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want R, P or S)", s)
}

// Framework bundles a relation recommender with a sample budget n_s and
// exposes the paper's estimation pipeline.
//
// A fitted Framework may be shared: Fit is idempotent per graph and safe for
// concurrent callers, and one Framework can serve many evaluations in
// parallel (the service layer relies on this to amortize Fit cost across
// requests). Concurrent Estimates share the recommender's scores, the static
// candidate sets and the remembered pool sets, all read-only once built; all
// an Estimate writes is a new entry of the pool memo, which Estimates missing
// the same set at once draw together, once.
type Framework struct {
	Rec        recommender.Recommender
	NumSamples int // n_s: candidates per (relation, direction)
	Seed       int64

	mu    sync.Mutex
	graph *kg.Graph
	sets  *recommender.CandidateSets // built on first need, see staticSets
	pools *eval.PoolMemo             // the fitted graph's drawn pool sets, see provider
}

// poolMemoBytes bounds the pool ids one fitted Framework remembers: about a
// hundred plans' pools at n_s = 1 200 over some tens of relations.
const poolMemoBytes = 32 << 20

// New builds an unfitted Framework. It panics unless numSamples (n_s) is at
// least 1: an empty pool would rank every answer first.
func New(rec recommender.Recommender, numSamples int, seed int64) *Framework {
	if numSamples < 1 {
		panic(fmt.Sprintf("core: n_s = %d, want at least 1", numSamples))
	}
	return &Framework{Rec: rec, NumSamples: numSamples, Seed: seed}
}

// Fit runs the one-time preprocessing on a graph: fitting the relation
// recommender on the training split. Fitting the same graph again is a
// no-op, and concurrent callers are serialized, so racing requests for the
// same Framework perform the preprocessing exactly once.
//
// Fit does not discretize the score matrix: the static candidate sets are
// built the first time something asks for them — Provider(StrategyStatic),
// an Estimate with StrategyStatic, or Sets — once per fitted graph, so a
// Probabilistic- or Random-only user never pays for them. The recommender's
// Fit builds Bᵀ, the graph's train-observed domain/range members, once and
// the score matrix from it, once, column-major; the matrix keeps Bᵀ, which
// the later discretization reads as its known members instead of building
// them again. Both use every core (see sparse.Mul and
// recommender.BuildStatic); their results do not depend on the core count.
func (f *Framework) Fit(g *kg.Graph) error {
	return f.FitCtx(context.Background(), g)
}

// FitCtx is Fit with trace context: when ctx carries a span, the one-time
// preprocessing records a "framework.fit" child span (recommender name,
// whether this call actually fitted or found the graph already fitted) with
// the recommender's own Fit as a "recommender.fit" child, so job traces show
// when they paid the Fit cost versus rode the cache.
func (f *Framework) FitCtx(ctx context.Context, g *kg.Graph) error {
	span := trace.FromContext(ctx).Child("framework.fit")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.graph == g {
		span.End(trace.String("recommender", f.Rec.Name()), trace.Bool("already_fitted", true))
		return nil
	}
	recSpan := span.Child("recommender.fit", trace.String("recommender", f.Rec.Name()))
	err := f.Rec.Fit(g)
	recSpan.End()
	if err != nil {
		span.End(trace.String("error", err.Error()))
		return fmt.Errorf("core: fitting %s: %w", f.Rec.Name(), err)
	}
	f.graph = g
	// Discretized from, and drawn over, the previous graph's scores.
	f.sets = nil
	f.pools = eval.NewPoolMemo(poolMemoBytes)
	span.End(trace.String("recommender", f.Rec.Name()), trace.Bool("already_fitted", false))
	return nil
}

// staticSets returns the fitted graph's static candidate sets, discretizing
// the score matrix on the first call after a Fit. Callers are serialized on
// the framework mutex, so concurrent first requests build once and all get
// the same sets. The build records a "framework.build_static" span under
// ctx's span, so a trace shows which job paid for it.
func (f *Framework) staticSets(ctx context.Context) *recommender.CandidateSets {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.graph == nil || f.sets != nil {
		return f.sets
	}
	span := trace.FromContext(ctx).Child("framework.build_static", trace.String("recommender", f.Rec.Name()))
	scores := f.Rec.Scores()
	f.sets = recommender.BuildStatic(scores, f.graph, recommender.DefaultStaticOpts())
	span.End(trace.Int("columns", len(f.sets.Sets)), trace.Int("nnz", scores.NNZ()),
		trace.Int("workers", par.Workers(len(f.sets.Sets))))
	return f.sets
}

// Provider returns the candidate provider implementing the strategy: every
// Candidates call is a draw, and so is every plan eval.Evaluate compiles over
// it. Fit must have been called.
func (f *Framework) Provider(s Strategy) eval.CandidateProvider {
	return f.provider(context.Background(), s, false)
}

// provider is Provider with the trace context an on-demand static-set build
// should be recorded under and, when remember is set (the Estimate methods),
// with the fitted graph's pool memo behind it: a plan whose pools an earlier
// call drew — same strategy, n_s, seed and relations — is handed those.
func (f *Framework) provider(ctx context.Context, s Strategy, remember bool) (p eval.CandidateProvider) {
	f.mu.Lock()
	graph, pools := f.graph, f.pools
	f.mu.Unlock()
	if graph == nil {
		panic("core: Framework used before Fit")
	}
	switch s {
	case StrategyRandom:
		p = &eval.RandomProvider{NumEntities: graph.NumEntities, N: f.NumSamples}
	case StrategyStatic:
		p = &eval.StaticProvider{Sets: f.staticSets(ctx), N: f.NumSamples}
	case StrategyProbabilistic:
		p = &eval.ProbabilisticProvider{Scores: f.Rec.Scores(), N: f.NumSamples}
	default:
		panic(fmt.Sprintf("core: unknown strategy %d", int(s)))
	}
	if remember {
		p = pools.Remember(p, f.NumSamples)
	}
	return p
}

// seeded reads an opts.Seed of 0 as the framework's seed.
func (f *Framework) seeded(opts eval.Options) eval.Options {
	if opts.Seed == 0 {
		opts.Seed = f.Seed
	}
	return opts
}

// Estimate runs a sampled filtered evaluation of the model over the split
// with the given strategy, returning estimated ranking metrics. A Seed of 0
// means the framework's seed; for a literal seed 0 call
// eval.Evaluate(m, g, split, f.Provider(s), opts) directly (which always
// draws: only the Estimate methods consult the pool memo).
func (f *Framework) Estimate(m kgc.Model, g *kg.Graph, split []kg.Triple, s Strategy, opts eval.Options) eval.Result {
	return eval.Evaluate(m, g, split, f.provider(opts.Ctx, s, true), f.seeded(opts))
}

// EstimateMany evaluates several models over one shared set of candidate
// pools and one filter-index pass: the split is grouped by relation and each
// pool drawn exactly once, then every model is scored over identical pools
// (eval.EvaluateMany). This is the multi-model amortization the service's
// models-jobs and model-selection-during-training workloads rely on;
// results[i] corresponds to ms[i] and equals what Estimate would return for
// that model with the same options.
func (f *Framework) EstimateMany(ms []kgc.Model, g *kg.Graph, split []kg.Triple, s Strategy, opts eval.Options) []eval.Result {
	return eval.EvaluateMany(ms, g, split, f.provider(opts.Ctx, s, true), f.seeded(opts))
}

// FullEvaluate runs the standard full filtered ranking protocol — the
// expensive ground truth the framework's estimates are compared against.
func FullEvaluate(m kgc.Model, g *kg.Graph, split []kg.Triple, opts eval.Options) eval.Result {
	return eval.Evaluate(m, g, split, eval.NewFullProvider(g.NumEntities), opts)
}

// FullEvaluateMany runs the full protocol for several models over one shared
// plan, the exhaustive counterpart of EstimateMany.
func FullEvaluateMany(ms []kgc.Model, g *kg.Graph, split []kg.Triple, opts eval.Options) []eval.Result {
	return eval.EvaluateMany(ms, g, split, eval.NewFullProvider(g.NumEntities), opts)
}
