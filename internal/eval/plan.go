package eval

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
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
// executions (batch or per-query, one model or many) with the same Seed see
// identical pools.
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

// stageClock accumulates scoring and ranking time across the pass's worker
// goroutines: each worker adds section durations at task granularity, so the
// totals measure CPU time spent per stage (they exceed wall time on a
// parallel pass).
type stageClock struct {
	scoreNS atomic.Int64
	rankNS  atomic.Int64
}

func (c *stageClock) timings() (score, rank time.Duration) {
	return time.Duration(c.scoreNS.Load()), time.Duration(c.rankNS.Load())
}

// taskBufs are one worker's reusable scratch buffers.
type taskBufs struct {
	scores []float64 // chunk × pool score block
	ents   []int32   // the chunk's query entities
	trues  []float64 // true-triple scores of the chunk
	head   oneHead
}

// runPass executes one model over the plan and returns its metrics. done is
// the cross-model triple counter driving the Progress hook; progressTotal is
// the hook's total (len(queries) for Evaluate, #models × len(queries) for
// EvaluateMany). Elapsed and the plan-level Stages are left for the caller
// to fill.
func runPass(m kgc.Model, p *plan, opts Options, progressTotal int, done *atomic.Int64) Result {
	pass := trace.FromContext(opts.Ctx).Child("eval.pass",
		trace.String("model", m.Name()), trace.Int("dim", m.Dim()),
		trace.String("precision", opts.Precision.String()))
	passStart := time.Now()
	// Unprocessed queries (cancelled mid-pass) leave their rank at 0, which
	// metricsFromRanks skips; processed ranks are always >= 1.
	ranks := make([]float64, 2*len(p.queries))
	var scored atomic.Int64
	var clock stageClock
	var tile int
	if opts.PerQuery {
		runPerQuery(m, p, opts, progressTotal, done, &scored, &clock, ranks)
	} else {
		tile = kgc.TileFor(p.maxPool, m.Dim(), opts.Precision)
		runBatch(m, p, opts, tile, progressTotal, done, &scored, &clock, ranks, pass)
	}
	res := Result{Metrics: metricsFromRanks(ranks), CandidatesScored: scored.Load()}
	res.Stages.Score, res.Stages.RankMerge = clock.timings()
	res.Stages.KernelTile = tile
	if pass != nil {
		// Score and rank_merge are CPU time summed across workers (see
		// StageTimings), not wall intervals; they are rendered as synthetic
		// spans anchored at the pass start so their widths compare directly,
		// and tagged so readers don't mistake them for wall clock.
		pass.ChildRecord("eval.score", passStart, passStart.Add(res.Stages.Score),
			trace.String("timing", "cpu-summed"))
		pass.ChildRecord("eval.rank_merge", passStart, passStart.Add(res.Stages.RankMerge),
			trace.String("timing", "cpu-summed"))
		pass.End(trace.Int("queries", res.Queries), trace.Int64("candidates_scored", res.CandidatesScored),
			trace.Int("tile", tile), trace.Bool("per_query", opts.PerQuery))
	}
	return res
}

// panicRelay carries the first panic out of a scoring worker goroutine to
// the goroutine that joins them. Without it a panic mid-scoring (a
// malformed model state, an injected fault) dies on a goroutine nobody can
// recover on and kills the whole process; relayed, it resurfaces on the
// caller — where the service layer's job-level recovery turns it into one
// failed job. The relayed value keeps the worker's stack, so the failure
// report points at the scoring site, not the rethrow.
type panicRelay struct {
	once sync.Once
	val  atomic.Value
}

// capture must be deferred directly in each worker goroutine.
func (pr *panicRelay) capture() {
	if r := recover(); r != nil {
		pr.once.Do(func() {
			pr.val.Store(fmt.Sprintf("%v\n\nscoring goroutine stack:\n%s", r, debug.Stack()))
		})
	}
}

// rethrow re-panics on the joining goroutine after wg.Wait, if any worker
// panicked.
func (pr *panicRelay) rethrow() {
	if v := pr.val.Load(); v != nil {
		panic(v)
	}
}

// runBatch is the relation-grouped executor: workers pull batchTasks and
// score whole chunks through the model's BatchScorer, reusing their entity
// and score buffers across tasks. Each worker builds its own scorer: the
// store-backed scorer carries per-scorer scratch (query rows, one candidate
// tile) that is reused across that worker's tasks but is not safe to share
// between goroutines.
func runBatch(m kgc.Model, p *plan, opts Options, tile int, progressTotal int, done, scored *atomic.Int64, clock *stageClock, ranks []float64, pass *trace.Span) {
	var cancel <-chan struct{}
	if opts.Ctx != nil {
		cancel = opts.Ctx.Done()
	}
	nw := opts.workers()
	if nw > len(p.tasks) {
		nw = len(p.tasks)
	}
	sample := opts.TraceChunkSample
	var next atomic.Int64
	var wg sync.WaitGroup
	var relay panicRelay
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer relay.capture()
			bs := kgc.NewBatchScorer(m, kgc.BatchOptions{Precision: opts.Precision, Tile: tile})
			var bufs taskBufs
			var local int64
			defer func() { scored.Add(local) }()
			for {
				ti := int(next.Add(1)) - 1
				if ti >= len(p.tasks) {
					return
				}
				if cancel != nil {
					select {
					case <-cancel:
						return
					default:
					}
				}
				// Chunk spans are sampled by task index so the Nth-task
				// selection is deterministic regardless of which worker
				// draws the task.
				chunkSpan := pass
				if sample < 0 || (sample > 1 && ti%sample != 0) {
					chunkSpan = nil
				}
				local += runTask(bs, p, p.tasks[ti], opts, tile, progressTotal, done, clock, ranks, &bufs, chunkSpan)
			}
		}()
	}
	wg.Wait()
	relay.rethrow()
}

// runTask ranks one chunk of a relation group in both directions. The true
// triple is scored through the same single-triple code paths the per-query
// executor uses, so the two executors are bit-identical. Section timings
// accumulate locally and land in clock once per task — two timed sections
// per direction — keeping the instrumentation overhead far below one
// timestamp per query. When pass is non-nil the task also records itself as
// one completed "eval.chunk" child span carrying the relation, pool sizes,
// precision, kernel tile and its stage split.
func runTask(bs kgc.BatchScorer, p *plan, t batchTask, opts Options, tile int, progressTotal int, done *atomic.Int64, clock *stageClock, ranks []float64, bufs *taskBufs, pass *trace.Span) int64 {
	g := t.group
	idx := g.idx[t.lo:t.hi]
	nq := len(idx)
	var chunkStart time.Time
	if pass != nil {
		chunkStart = time.Now()
	}
	var scoreNS, rankNS int64
	defer func() {
		clock.scoreNS.Add(scoreNS)
		clock.rankNS.Add(rankNS)
		if pass != nil {
			pass.ChildRecord("eval.chunk", chunkStart, time.Now(),
				trace.Int("relation", int(g.r)), trace.Int("queries", nq),
				trace.Int("pool_tail", len(g.tailPool)), trace.Int("pool_head", len(g.headPool)),
				trace.String("precision", opts.Precision.String()), trace.Int("tile", tile),
				trace.Int64("score_ns", scoreNS), trace.Int64("rank_ns", rankNS))
		}
	}()

	bufs.ents = kgc.Grow(bufs.ents, nq)
	bufs.trues = kgc.Grow(bufs.trues, nq)
	ents, trues := bufs.ents, bufs.trues

	scoreStart := time.Now()
	nc := len(g.tailPool)
	for i, qi := range idx {
		ents[i] = p.queries[qi].H
	}
	bufs.scores = kgc.Grow(bufs.scores, nq*nc)
	scores := bufs.scores
	bs.ScoreTailsBatch(ents, g.r, g.tailPool, scores)
	for i, qi := range idx {
		q := p.queries[qi]
		trues[i] = bs.ScoreTriple(q.H, q.R, q.T)
	}
	scoreNS += int64(time.Since(scoreStart))

	rankStart := time.Now()
	for i, qi := range idx {
		q := p.queries[qi]
		ranks[2*qi] = rankScores(q.T, trues[i], g.tailPool, scores[i*nc:(i+1)*nc], opts.Filter.Tails(q.H, q.R))
	}
	rankNS += int64(time.Since(rankStart))
	n := int64(nq) * int64(nc)

	scoreStart = time.Now()
	hc := len(g.headPool)
	for i, qi := range idx {
		ents[i] = p.queries[qi].T
	}
	bufs.scores = kgc.Grow(bufs.scores, nq*hc)
	scores = bufs.scores
	bs.ScoreHeadsBatch(ents, g.r, g.headPool, scores)
	for i, qi := range idx {
		trues[i] = scoreHeadOne(bs, p.queries[qi], &bufs.head)
	}
	scoreNS += int64(time.Since(scoreStart))

	rankStart = time.Now()
	for i, qi := range idx {
		q := p.queries[qi]
		ranks[2*qi+1] = rankScores(q.H, trues[i], g.headPool, scores[i*hc:(i+1)*hc], opts.Filter.Heads(q.R, q.T))
	}
	rankNS += int64(time.Since(rankStart))
	n += int64(nq) * int64(hc)

	for range idx {
		d := done.Add(1)
		if opts.Progress != nil {
			opts.Progress(int(d), progressTotal)
		}
	}
	return n
}

// runPerQuery is the legacy query-at-a-time executor, kept as the reference
// implementation the batch path is verified against (and benchmarked over).
// Its scoring and ranking are interleaved inside rankTail/rankHead, so the
// stage clock attributes the whole loop to Score.
func runPerQuery(m kgc.Model, p *plan, opts Options, progressTotal int, done, scored *atomic.Int64, clock *stageClock, ranks []float64) {
	tailPools := make(map[int32][]int32, len(p.groups))
	headPools := make(map[int32][]int32, len(p.groups))
	for gi := range p.groups {
		g := &p.groups[gi]
		tailPools[g.r] = g.tailPool
		headPools[g.r] = g.headPool
	}
	var cancel <-chan struct{}
	if opts.Ctx != nil {
		cancel = opts.Ctx.Done()
	}
	queries := p.queries
	nw := opts.workers()
	var wg sync.WaitGroup
	var relay panicRelay
	chunk := (len(queries) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer relay.capture()
			var buf []float64
			var head oneHead
			var local, localNS int64
			defer func() {
				scored.Add(local)
				clock.scoreNS.Add(localNS)
			}()
			for i := lo; i < hi; i++ {
				if cancel != nil {
					select {
					case <-cancel:
						return
					default:
					}
				}
				t0 := time.Now()
				q := queries[i]
				tp := tailPools[q.R]
				buf = kgc.Grow(buf, len(tp))
				ranks[2*i] = rankTail(m, opts.Filter, q, tp, buf)
				local += int64(len(tp))

				hp := headPools[q.R]
				buf = kgc.Grow(buf, len(hp))
				ranks[2*i+1] = rankHead(m, opts.Filter, q, hp, buf, &head)
				local += int64(len(hp))
				localNS += int64(time.Since(t0))

				d := done.Add(1)
				if opts.Progress != nil {
					opts.Progress(int(d), progressTotal)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	relay.rethrow()
}
