package eval

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
	"kgeval/internal/par"
	"kgeval/internal/sample"
)

// relGroup is the unit of the relation-grouped execution plan: all queries
// of one relation, plus the relation's two candidate pools. Keeping pools on
// the group (flat slices, no map lookups) is what lets the hot loop batch
// queries over each tile of candidate rows.
type relGroup struct {
	r        int32
	idx      []int // indices into plan.queries, ascending
	tailPool []int32
	headPool []int32
}

// batchTask is one worker-schedulable run of triples in plan order: it starts
// at triple lo of groups[group] and runs on through relations groups in all,
// crossing only into groups whose two pools are the very slices of the one
// before (samePool) — one block over one pool, or a tail and a head block.
type batchTask struct {
	group, lo, triples, relations int
}

// samePool reports whether two pools are the same slice — base pointer and
// length, not equal contents: what the provider handed out (one slice for all
// of the full protocol, a fresh one per drawn sample) decides who shares a sweep.
func samePool(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Chunking parameters. Variables rather than constants so tests can shrink
// them, each on its own, to put many strips and block edges on small graphs.
var (
	// batchFloatBudget caps a worker's score buffer (block queries × strip)
	// at 32k floats (256 KB) whatever the pool's size; more buys nothing
	// (BenchmarkFullPass runs as fast on strips of 384 as of 1 024).
	batchFloatBudget = 1 << 15
	// maxBatchQueries caps the directed queries of a block: enough to
	// amortize each tile of candidate rows, few enough to balance workers.
	maxBatchQueries = 64
)

// plan is the shared, read-only structure of one evaluation pass: the (possibly
// subsampled) query set grouped by relation, each group's candidate pools
// drawn exactly once (2·|R| sampling events), and the cut into tasks. One
// plan can execute any number of models, which is how EvaluateMany amortizes
// pool construction across a model fleet.
type plan struct {
	queries []kg.Triple
	groups  []relGroup
	tasks   []batchTask
	// compileTime and poolTime are the plan's one-time setup costs
	// (grouping + chunking, and the 2·|R| pool draws), wall-clock both,
	// recorded here so every pass over the plan can report them in
	// Result.Stages.
	compileTime time.Duration
	poolTime    time.Duration
	poolsCached bool // the pools came out of a PoolMemo; poolTime is the lookup's
}

// newPlan groups the queries by relation and draws every pool. Pools are
// drawn in ascending relation order, tail before head, from a generator
// seeded with Seed+1 — the draw sequence is part of the protocol: any two
// executions (one model or many, on any number of workers) with the same
// Seed see identical pools; see draw. A provider that remembers plans is
// handed the pools an earlier plan drew instead (drawPools), which are those.
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
	drawWorkers := p.drawPools(provider, opts)
	p.poolTime, p.poolsCached = time.Since(drawStart), drawWorkers == 0
	compileSpan.ChildRecord("eval.pool_draw", drawStart, drawStart.Add(p.poolTime),
		trace.Int("pools", 2*len(p.groups)), trace.String("provider", provider.Name()),
		trace.Int("workers", drawWorkers), trace.Bool("cached", p.poolsCached))
	p.chunk(opts.workers())
	p.compileTime = time.Since(start) - p.poolTime
	compileSpan.End(trace.Int("relations", len(p.groups)), trace.Int("tasks", len(p.tasks)),
		trace.Int("queries", len(queries)))
	return p
}

// drawPools gives every group its two pools and reports how many goroutines
// drew them: none when the provider remembers plans (PoolMemo.Remember) and
// has this one, or another plan is drawing it — the groups then hold the
// slices that plan drew — and otherwise what draw says, the set filed for the
// next plan to find. newPlan has no error return, so a draw that panicked
// panics here, in every plan that was waiting for it.
func (p *plan) drawPools(provider CandidateProvider, opts Options) (workers int) {
	mp, ok := provider.(*memoProvider)
	if !ok {
		return p.draw(provider, opts)
	}
	rels := make([]byte, 0, 4*len(p.groups))
	for _, g := range p.groups {
		rels = binary.LittleEndian.AppendUint32(rels, uint32(g.r))
	}
	sets := mp.memo.sets
	set := sets.Reserve(poolKey{mp.Name(), mp.n, opts.Seed, string(rels)}, memoCharge(len(p.groups), mp.n), nil)
	pools, _, err := sets.Resolve(set, nil, func([]relGroup) ([]relGroup, error) {
		workers = p.draw(mp.CandidateProvider, opts)
		pools := make([]relGroup, len(p.groups))
		for gi, g := range p.groups {
			pools[gi] = relGroup{r: g.r, tailPool: g.tailPool, headPool: g.headPool}
		}
		return pools, nil
	})
	if err != nil {
		panic(err)
	}
	for gi := range p.groups {
		p.groups[gi].tailPool, p.groups[gi].headPool = pools[gi].tailPool, pools[gi].headPool
	}
	return workers
}

// memoCharge is what a set of 2·groups pools of up to n ids each charges a
// PoolMemo: 4 bytes an id. It saturates where the product would wrap, so a
// set that large is served but never filed.
func memoCharge(groups, n int) int64 {
	if n > 0 && groups > math.MaxInt/8/n {
		return math.MaxInt64
	}
	return int64(8 * groups * n)
}

// draw draws every group's two pools and reports how many goroutines
// drew. All pools read one generator, rand.NewSource(opts.Seed+1)'s stream,
// and a draw's place in that stream is part of the protocol, so only what a
// draw does after its last read of the stream can leave the one stream's
// order. The Probabilistic draw has such a remainder and it is most of the
// draw: its pools are drawn from up to opts.workers() goroutines, each
// claiming the next pool in draw order and taking that pool's uniforms from
// the sample.Stream in bulk inside one critical section, then keying,
// selecting and emitting outside it in a sample.Scratch from sample's pool,
// so a plan grows no buffers of its own. Any other provider's Candidates, a
// third party's included, would run whole under the lock, so it runs on the
// calling goroutine, on rand.New over the same stream, with no lock at all.
// Either way the pools are the ones a single goroutine draws. A panic in a
// drawing goroutine resurfaces on the caller (par.Run) once the others have
// drawn what is left.
func (p *plan) draw(provider CandidateProvider, opts Options) (workers int) {
	stream := sample.NewStream(opts.Seed + 1)
	prob, split := provider.(*ProbabilisticProvider)
	if !split {
		rng := rand.New(stream)
		for gi := range p.groups {
			g := &p.groups[gi]
			g.tailPool = provider.Candidates(g.r, true, rng)
			g.headPool = provider.Candidates(g.r, false, rng)
		}
		return 1
	}
	pools := 2 * len(p.groups)
	workers = max(1, min(opts.workers(), pools))
	var mu sync.Mutex
	next := 0
	// claim takes the next pool in draw order and the stream's share of its
	// draw: where the pool goes, and the column whose uniforms are now in s.
	claim := func(s *sample.Scratch) (pool *[]int32, ids []int32, weights []float64) {
		mu.Lock()
		defer mu.Unlock() // on a panic too, or the other workers wait forever
		g, tail := &p.groups[next/2], next%2 == 0
		next++
		pool = &g.headPool
		if tail {
			pool = &g.tailPool
		}
		ids, weights = prob.column(g.r, tail)
		s.Draw(stream, weights, prob.N)
		return pool, ids, weights
	}
	// par.Run deals out how many pools a worker draws; which ones is settled
	// under the lock.
	par.Run(pools, workers, 1, func(_, lo, hi int) {
		s := sample.GetScratch()
		defer sample.PutScratch(s)
		for range hi - lo {
			pool, ids, weights := claim(s)
			*pool = s.Select(ids, weights, prob.N)
		}
	})
	return workers
}

// chunk cuts the plan into tasks. A task holds the triples of one block:
// maxBatchQueries directed queries — half as many triples when the tail and
// head pools are one slice and both directions share the block — and never so
// many that there are fewer tasks than workers. The pool's size does not
// enter (runBlock sweeps it in strips); ranks do not depend on the cuts.
func (p *plan) chunk(workers int) {
	perWorker := (len(p.queries) + workers - 1) / workers
	for gi := range p.groups {
		g := &p.groups[gi]
		limit := maxBatchQueries
		if samePool(g.tailPool, g.headPool) {
			limit /= 2
		}
		limit = max(1, min(limit, perWorker))
		lo := 0
		if n := len(p.tasks); n > 0 {
			// The last task ends where this group begins: top it up when it
			// sweeps the same pools (and so has the same limit).
			t, first := &p.tasks[n-1], &p.groups[p.tasks[n-1].group]
			if t.triples < limit && samePool(first.tailPool, g.tailPool) && samePool(first.headPool, g.headPool) {
				lo = min(limit-t.triples, len(g.idx))
				t.triples += lo
				t.relations++
			}
		}
		for ; lo < len(g.idx); lo += limit {
			p.tasks = append(p.tasks, batchTask{group: gi, lo: lo, triples: min(limit, len(g.idx)-lo), relations: 1})
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
	plan     *plan
	opts     Options
	entities int // |E|, the length of the workers' position indexes
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

// worker is one scoring goroutine's private state: its own scorer (whose
// scratch — the block's query vectors, one candidate tile — is not safe to
// share) and buffers, reused across its tasks, and a position index taken
// from indexes for the pass. The tallies are folded into the Result after
// the join; scoreNS and rankNS are CPU time, strip by strip.
type worker struct {
	bs     kgc.BatchScorer
	scores []float64    // block queries × strip
	bounds []kgc.Bound  // each block query's Bound over the strip (RankBlock)
	ents   []int32      // one relation's query entities, while its queries are built
	qs     []blockQuery // the block's directed queries
	ix     *poolIndex   // the position index of the block's pool
	win    window       // the strip's window, one query at a time; win.rescored is the pass's tally

	scored, scoreNS, rankNS, strips int64
}

// runPass executes one model over the plan: workers claim batchTasks one at a
// time (par.Run) and score each as one or two blocks through the model's
// BatchScorer. Result.Elapsed and the eval.pass span cover exactly this
// scoring pass; the plan-level Stages are copied in from the plan. A panic in
// a scoring goroutine resurfaces on the caller with the worker's stack, where
// the service layer's job-level recovery turns it into one failed job.
func runPass(m kgc.Model, p *plan, opts Options, entities, progressTotal int, done *atomic.Int64) Result {
	start := time.Now()
	ps := &pass{
		plan: p, opts: opts, entities: entities,
		done: done, progressTotal: progressTotal,
		ranks: make([]float64, 2*len(p.queries)),
		span: trace.FromContext(opts.Ctx).Child("eval.pass",
			trace.String("model", m.Name()), trace.Int("dim", m.Dim()),
			trace.String("precision", opts.Precision.String()), trace.String("kernel", kgc.Kernel())),
	}
	workers := make([]worker, min(opts.workers(), len(p.tasks)))
	par.Run(len(p.tasks), len(workers), 1, func(wi, lo, hi int) {
		w := &workers[wi]
		if w.bs == nil {
			w.bs = kgc.NewBatchScorer(m, kgc.BatchOptions{Precision: opts.Precision})
			w.ix = indexes.Get().(*poolIndex)
		}
		for ti := lo; ti < hi && opts.Ctx.Err() == nil; ti++ {
			ps.runTask(w, ti)
		}
	})
	for i := range workers {
		if workers[i].ix != nil {
			indexes.Put(workers[i].ix) // every block cleared its entries
		}
	}

	res := Result{Metrics: metricsFromRanks(ps.ranks)}
	res.Stages = StageTimings{PlanCompile: p.compileTime, PoolDraw: p.poolTime}
	var rescored int64
	for i := range workers {
		res.CandidatesScored += workers[i].scored
		res.Stages.Score += time.Duration(workers[i].scoreNS)
		res.Stages.RankMerge += time.Duration(workers[i].rankNS)
		rescored += workers[i].win.rescored
	}
	instruments.rescoredTotal.Add(rescored)
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
			trace.Int64("rescored", rescored))
	}
	res.Elapsed = time.Since(start)
	return res
}

// runTask ranks task ti: one block holding both directions of its triples
// when their tail and head pools are one slice, otherwise a tail block and
// then a head block. Progress is reported once both directions are ranked; a
// task cancelled mid-sweep reports none. On a traced pass the task records
// one "eval.chunk" child span (what it mixed, pool sizes, strips, stage
// split); the trace's per-trace ring bounds how many are kept.
func (ps *pass) runTask(w *worker, ti int) {
	t := ps.plan.tasks[ti]
	g := &ps.plan.groups[t.group]
	chunkStart := time.Now()
	score0, rank0, strips0 := w.scoreNS, w.rankNS, w.strips
	both := samePool(g.tailPool, g.headPool)
	ranked := ps.runBlock(w, t, g.tailPool, true, both) && (both || ps.runBlock(w, t, g.headPool, false, true))
	if ps.span != nil {
		ps.span.ChildRecord("eval.chunk", chunkStart, time.Now(),
			trace.Int("relations", t.relations), trace.Int("queries", 2*t.triples),
			trace.Int("pool_tail", len(g.tailPool)), trace.Int("pool_head", len(g.headPool)),
			trace.Int("strips", int(w.strips-strips0)), trace.String("precision", ps.opts.Precision.String()),
			trace.Int64("score_ns", w.scoreNS-score0), trace.Int64("rank_ns", w.rankNS-rank0))
	}
	for i := 0; ranked && i < t.triples; i++ {
		d := ps.done.Add(1)
		if ps.opts.Progress != nil {
			ps.opts.Progress(int(d), ps.progressTotal)
		}
	}
}

// runBlock builds one block of directed queries — the tail and/or head
// queries of task t's triples, which all rank against pool — and sweeps it
// over the pool once, in strips that keep block × strip scores inside
// batchFloatBudget, ranking each strip as it is scored against the pool's
// position index, filled before the sweep and cleared after it.
// It reports false, with no rank written, when cancelled between two strips.
// Queries are built relation by relation, so per-relation scorer state is
// computed once per relation of the block, and each true triple is scored
// from the query just built (BatchScorer.ScoreAnswer, which owns the rule the
// test oracle applies: ScoreTriple for a tail, ScoreHeads over the one id for
// a head).
func (ps *pass) runBlock(w *worker, t batchTask, pool []int32, tails, heads bool) bool {
	p, filter, bs := ps.plan, ps.opts.Filter, w.bs
	start := time.Now()
	nq := t.triples
	if tails && heads {
		nq *= 2
	}
	bs.BeginBlock(nq)
	qs := kgc.Grow(w.qs, nq)[:0]
	gi, lo := t.group, t.lo
	for left := t.triples; left > 0; gi, lo = gi+1, 0 {
		g := &p.groups[gi]
		idx := g.idx[lo:min(len(g.idx), lo+left)]
		left -= len(idx)
		w.ents = kgc.Grow(w.ents, len(idx))
		if tails {
			for i, qi := range idx {
				w.ents[i] = p.queries[qi].H
			}
			bs.AddTails(w.ents, g.r)
			for _, qi := range idx {
				q := p.queries[qi]
				qs = append(qs, blockQuery{slot: 2 * qi, truth: q.T,
					score: bs.ScoreAnswer(len(qs), q.T), known: filter.Tails(q.H, q.R)})
			}
		}
		if heads {
			for i, qi := range idx {
				w.ents[i] = p.queries[qi].T
			}
			bs.AddHeads(w.ents, g.r)
			for _, qi := range idx {
				q := p.queries[qi]
				qs = append(qs, blockQuery{slot: 2*qi + 1, truth: q.H,
					score: bs.ScoreAnswer(len(qs), q.H), known: filter.Heads(q.R, q.T)})
			}
		}
	}
	w.qs = qs

	// Whole groups of four candidates, the vector kernels' step, so only a
	// pool's last strip can leave the scorer a remainder.
	strip := max(1, batchFloatBudget/nq)
	if strip > 4 {
		strip &^= 3
	}
	w.scores = kgc.Grow(w.scores, nq*min(strip, len(pool)))
	w.bounds = kgc.Grow(w.bounds, nq)
	w.win.bs = bs
	built := time.Now()
	w.scoreNS += int64(built.Sub(start))
	w.ix.index(pool, ps.entities)
	start = time.Now()
	w.rankNS += int64(start.Sub(built))
	for j0 := 0; j0 < len(pool) && ps.opts.Ctx.Err() == nil; j0 += strip {
		cands := pool[j0:min(j0+strip, len(pool))]
		nc := len(cands)
		bs.RankBlock(cands, w.scores[:nq*nc], w.bounds)
		scored := time.Now()
		w.scoreNS += int64(scored.Sub(start))
		w.win.cands = cands
		for i := range qs {
			w.win.i, w.win.b = i, w.bounds[i]
			qs[i].countWithin(w.ix, j0, w.scores[i*nc:(i+1)*nc], &w.win)
		}
		start = time.Now()
		w.rankNS += int64(start.Sub(scored))
		w.strips++
		w.scored += int64(nq * nc)
	}
	swept := time.Now()
	w.scoreNS += int64(swept.Sub(start))
	w.ix.clear()
	w.rankNS += int64(time.Since(swept))
	if ps.opts.Ctx.Err() != nil {
		return false
	}
	for i := range qs {
		ps.ranks[qs[i].slot] = qs[i].rank()
	}
	return true
}
