package eval

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
	"kgeval/internal/par"
)

// relGroup is the unit of the relation-grouped execution plan: all queries
// of one relation, plus the relation's two candidate pools. Keeping pools on
// the group (flat slices, no map lookups) is what lets the hot loop batch
// every query of the relation over each tile of candidate rows.
type relGroup struct {
	r        int32
	idx      []int // indices into plan.queries, ascending
	tailPool []int32
	headPool []int32
}

// batchTask is one worker-schedulable slice of a relation group. Groups are
// chunked so large relations parallelize across workers and so the score
// buffer (chunk × pool) stays bounded; cancellation takes effect between
// tasks.
type batchTask struct {
	group  *relGroup
	lo, hi int // range within group.idx
}

// Chunking parameters. Variables rather than constants so tests can shrink
// them to exercise the large-pool regime on small graphs.
var (
	// batchFloatBudget caps a batch task's score buffer at 64k floats
	// (512 KB per worker) — or at one query's pool, when a single pool is
	// larger than that.
	batchFloatBudget = 1 << 16
	// maxBatchQueries caps queries per task so cancellation latency and
	// worker load imbalance stay small even for tiny pools.
	maxBatchQueries = 64
)

// plan is the shared, read-only structure of one evaluation pass: the (possibly
// subsampled) query set grouped by relation, each group's candidate pools
// drawn exactly once (2·|R| sampling events), and the group chunking. One
// plan can execute any number of models, which is how EvaluateMany amortizes
// pool construction across a model fleet.
type plan struct {
	queries []kg.Triple
	groups  []relGroup
	tasks   []batchTask
	// maxPool is the largest candidate pool over all groups, set by chunk();
	// together with model dim and precision it keys the kernel tile
	// selection (kgc.TileFor).
	maxPool int
	// compileTime and poolTime are the plan's one-time setup costs
	// (grouping + chunking, and the 2·|R| pool draws), recorded here so
	// every pass over the plan can report them in Result.Stages.
	compileTime time.Duration
	poolTime    time.Duration
}

// newPlan groups the queries by relation and draws every pool. Pools are
// drawn in ascending relation order, tail before head, from a generator
// seeded with Seed+1 — the draw sequence is part of the protocol: any two
// executions (one model or many) with the same Seed see identical pools.
func newPlan(queries []kg.Triple, provider CandidateProvider, opts Options) *plan {
	// On traced passes the compile span covers all of newPlan, with the
	// 2·|R| pool draws as a child — mirroring how compileTime/poolTime are
	// split in Result.Stages.
	compileSpan := trace.FromContext(opts.Ctx).Child("eval.plan_compile")
	start := time.Now()
	counts := map[int32]int{}
	for _, q := range queries {
		counts[q.R]++
	}
	relIDs := make([]int32, 0, len(counts))
	for r := range counts {
		relIDs = append(relIDs, r)
	}
	slices.Sort(relIDs)

	p := &plan{queries: queries, groups: make([]relGroup, len(relIDs))}
	pos := make(map[int32]int, len(relIDs))
	backing := make([]int, len(queries))
	off := 0
	for gi, r := range relIDs {
		n := counts[r]
		p.groups[gi] = relGroup{r: r, idx: backing[off : off : off+n]}
		pos[r] = gi
		off += n
	}
	for i, q := range queries {
		gi := pos[q.R]
		p.groups[gi].idx = append(p.groups[gi].idx, i)
	}

	drawStart := time.Now()
	// Chaos hook: newPlan has no error return, so error- and panic-mode
	// faults both panic here; the engine's worker recovery converts that into
	// a failed job carrying the stack.
	if err := faults.Hit(faults.SitePoolDraw); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	for gi := range p.groups {
		g := &p.groups[gi]
		g.tailPool = provider.Candidates(g.r, true, rng)
		g.headPool = provider.Candidates(g.r, false, rng)
	}
	p.poolTime = time.Since(drawStart)
	compileSpan.ChildRecord("eval.pool_draw", drawStart, drawStart.Add(p.poolTime),
		trace.Int("pools", 2*len(p.groups)), trace.String("provider", provider.Name()))
	p.chunk()
	p.compileTime = time.Since(start) - p.poolTime
	compileSpan.End(trace.Int("relations", len(p.groups)), trace.Int("tasks", len(p.tasks)),
		trace.Int("queries", len(queries)), trace.Int("max_pool", p.maxPool))
	return p
}

// chunk slices each group into batchTasks sized to the float budget: the
// score buffer (chunk × pool) is the only per-task state that grows with
// the pool, so a pool larger than the whole budget runs one query per task.
func (p *plan) chunk() {
	for gi := range p.groups {
		g := &p.groups[gi]
		pool := max(len(g.tailPool), len(g.headPool))
		p.maxPool = max(p.maxPool, pool)
		b := maxBatchQueries
		if pool > 0 {
			b = max(1, min(b, batchFloatBudget/pool))
		}
		for lo := 0; lo < len(g.idx); lo += b {
			hi := min(lo+b, len(g.idx))
			p.tasks = append(p.tasks, batchTask{group: g, lo: lo, hi: hi})
		}
	}
}

// subsample applies the MaxQueries bound after a deterministic shuffle.
func subsample(split []kg.Triple, opts Options) []kg.Triple {
	if opts.MaxQueries <= 0 || opts.MaxQueries >= len(split) {
		return split
	}
	shuffled := append([]kg.Triple(nil), split...)
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return shuffled[:opts.MaxQueries]
}

// pass is one model's execution over a plan: what every task of the pass
// shares. Tasks write disjoint entries of ranks, so workers need no lock.
type pass struct {
	plan *plan
	opts Options
	// tile is the kernel candidate tile selected for this model and plan
	// (kgc.TileFor over pool size × dim × precision).
	tile int
	// done is the cross-model triple counter driving the Progress hook and
	// progressTotal the hook's total: #models × len(queries).
	done          *atomic.Int64
	progressTotal int
	// ranks holds two entries per query, tail then head. Unprocessed queries
	// (cancelled mid-pass) leave their rank at 0, which metricsFromRanks
	// skips; processed ranks are always >= 1.
	ranks []float64
	span  *trace.Span
}

// worker is one scoring goroutine's private state. The scorer carries
// per-scorer scratch (query rows, one candidate tile) that is reused across
// the worker's tasks but is not safe to share between goroutines, so each
// worker builds its own; the buffers are reused the same way. The tallies
// are folded into the Result after the join: scoreNS and rankNS add section
// durations at task granularity, so their totals measure CPU time spent per
// stage (they exceed wall time on a parallel pass).
type worker struct {
	bs     kgc.BatchScorer
	scores []float64 // chunk × pool score block
	ents   []int32   // the chunk's query entities
	trues  []float64 // true-triple scores of the chunk
	head   oneHead

	scored, scoreNS, rankNS int64
}

// runPass executes one model over the plan — the relation-grouped executor:
// workers claim batchTasks one at a time (par.Run) and score whole chunks
// through the model's BatchScorer. Result.Elapsed and the eval.pass span
// cover exactly this scoring pass; the plan-level Stages are copied in from
// the plan. A panic in a scoring goroutine resurfaces on the caller with the
// worker's stack, where the service layer's job-level recovery turns it into
// one failed job.
func runPass(m kgc.Model, p *plan, opts Options, progressTotal int, done *atomic.Int64) Result {
	start := time.Now()
	ps := &pass{
		plan: p, opts: opts,
		tile: kgc.TileFor(p.maxPool, m.Dim(), opts.Precision),
		done: done, progressTotal: progressTotal,
		ranks: make([]float64, 2*len(p.queries)),
		span: trace.FromContext(opts.Ctx).Child("eval.pass",
			trace.String("model", m.Name()), trace.Int("dim", m.Dim()),
			trace.String("precision", opts.Precision.String()), trace.String("kernel", kgc.Kernel())),
	}
	var cancel <-chan struct{} // nil (never ready) without a context
	if opts.Ctx != nil {
		cancel = opts.Ctx.Done()
	}
	workers := make([]worker, min(opts.workers(), len(p.tasks)))
	par.Run(len(p.tasks), len(workers), 1, func(wi, lo, hi int) {
		w := &workers[wi]
		if w.bs == nil {
			w.bs = kgc.NewBatchScorer(m, kgc.BatchOptions{Precision: opts.Precision, Tile: ps.tile})
		}
		for ti := lo; ti < hi; ti++ {
			select {
			case <-cancel:
				return
			default:
			}
			ps.runTask(w, ti)
		}
	})

	res := Result{Metrics: metricsFromRanks(ps.ranks)}
	res.Stages = StageTimings{PlanCompile: p.compileTime, PoolDraw: p.poolTime, KernelTile: ps.tile, Kernel: kgc.Kernel()}
	for i := range workers {
		res.CandidatesScored += workers[i].scored
		res.Stages.Score += time.Duration(workers[i].scoreNS)
		res.Stages.RankMerge += time.Duration(workers[i].rankNS)
	}
	if ps.span != nil {
		// Score and rank_merge are CPU time summed across workers (see
		// StageTimings), not wall intervals; they are rendered as synthetic
		// spans anchored at the pass start so their widths compare directly,
		// and tagged so readers don't mistake them for wall clock.
		ps.span.ChildRecord("eval.score", start, start.Add(res.Stages.Score),
			trace.String("timing", "cpu-summed"))
		ps.span.ChildRecord("eval.rank_merge", start, start.Add(res.Stages.RankMerge),
			trace.String("timing", "cpu-summed"))
		ps.span.End(trace.Int("queries", res.Queries), trace.Int64("candidates_scored", res.CandidatesScored),
			trace.Int("tile", ps.tile))
	}
	res.Elapsed = time.Since(start)
	return res
}

// runTask ranks task ti — one chunk of a relation group — in both
// directions. The true tail is scored through the scorer's ScoreTriple and
// the true head through its ScoreHeads over the one id, the rule the test
// oracle applies through the plain Model methods. Section timings accumulate
// locally and land on the worker once per task — two timed sections per
// direction — keeping the instrumentation overhead far below one timestamp
// per query. On a traced pass the task also records itself as one completed
// "eval.chunk" child span carrying the relation, pool sizes, precision,
// kernel tile and its stage split; chunk spans are sampled by task index so
// the Nth-task selection is deterministic regardless of which worker draws
// the task.
func (ps *pass) runTask(w *worker, ti int) {
	p, opts := ps.plan, &ps.opts
	t := p.tasks[ti]
	g := t.group
	idx := g.idx[t.lo:t.hi]
	nq := len(idx)
	span := ps.span
	if s := opts.TraceChunkSample; s < 0 || (s > 1 && ti%s != 0) {
		span = nil
	}
	var chunkStart time.Time
	if span != nil {
		chunkStart = time.Now()
	}
	var scoreNS, rankNS int64
	defer func() {
		w.scoreNS += scoreNS
		w.rankNS += rankNS
		if span != nil {
			span.ChildRecord("eval.chunk", chunkStart, time.Now(),
				trace.Int("relation", int(g.r)), trace.Int("queries", nq),
				trace.Int("pool_tail", len(g.tailPool)), trace.Int("pool_head", len(g.headPool)),
				trace.String("precision", opts.Precision.String()), trace.Int("tile", ps.tile),
				trace.Int64("score_ns", scoreNS), trace.Int64("rank_ns", rankNS))
		}
	}()

	w.ents = kgc.Grow(w.ents, nq)
	w.trues = kgc.Grow(w.trues, nq)
	ents, trues, bs := w.ents, w.trues, w.bs

	scoreStart := time.Now()
	nc := len(g.tailPool)
	for i, qi := range idx {
		ents[i] = p.queries[qi].H
	}
	w.scores = kgc.Grow(w.scores, nq*nc)
	scores := w.scores
	bs.ScoreTailsBatch(ents, g.r, g.tailPool, scores)
	for i, qi := range idx {
		q := p.queries[qi]
		trues[i] = bs.ScoreTriple(q.H, q.R, q.T)
	}
	scoreNS += int64(time.Since(scoreStart))

	rankStart := time.Now()
	for i, qi := range idx {
		q := p.queries[qi]
		ps.ranks[2*qi] = rankScores(q.T, trues[i], g.tailPool, scores[i*nc:(i+1)*nc], opts.Filter.Tails(q.H, q.R))
	}
	rankNS += int64(time.Since(rankStart))

	scoreStart = time.Now()
	hc := len(g.headPool)
	for i, qi := range idx {
		ents[i] = p.queries[qi].T
	}
	w.scores = kgc.Grow(w.scores, nq*hc)
	scores = w.scores
	bs.ScoreHeadsBatch(ents, g.r, g.headPool, scores)
	for i, qi := range idx {
		trues[i] = scoreHeadOne(bs, p.queries[qi], &w.head)
	}
	scoreNS += int64(time.Since(scoreStart))

	rankStart = time.Now()
	for i, qi := range idx {
		q := p.queries[qi]
		ps.ranks[2*qi+1] = rankScores(q.H, trues[i], g.headPool, scores[i*hc:(i+1)*hc], opts.Filter.Heads(q.R, q.T))
	}
	rankNS += int64(time.Since(rankStart))
	w.scored += int64(nq) * int64(nc+hc)

	for range idx {
		d := ps.done.Add(1)
		if opts.Progress != nil {
			opts.Progress(int(d), ps.progressTotal)
		}
	}
}
