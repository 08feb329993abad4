package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
)

// The ladder calls the lower rungs directly, on the traced workload's own
// graph, after its rounds: micro-kernel → store.Gather → one Evaluate pass →
// Framework.Estimate. The cheap rungs (machine, kgc, store, obs) run on every
// workload, so each traced run carries its own noise canaries; the rungs that
// cost seconds run only under the workload whose end-to-end numbers they
// explain.

// sortedSample draws k distinct ids below n, ascending — the shape of a pool.
func sortedSample(rng *rand.Rand, n, k int) []int32 {
	if k > n {
		k = n
	}
	ids := make([]int32, 0, k)
	for _, i := range rng.Perm(n)[:k] {
		ids = append(ids, int32(i))
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func ladderCommon(e *env, layers layerSet, logf func(string, ...any)) {
	arrayBytes, llc := streamArrayBytes(e.sc.StreamBytes)
	layers["machine.stream_gbps"] = streamGBps(arrayBytes)
	layers["machine.fma_gflops"] = fmaGFLOPs()
	logf("roofline: stream arrays %d MiB each, last-level cache reported %d MiB; stream %.2f GB/s, scalar FMA %.2f GFLOP/s",
		arrayBytes>>20, llc>>20, layers["machine.stream_gbps"], layers["machine.fma_gflops"])
	for _, rung := range []func(*env, layerSet){ladderKernels, ladderStore, ladderSerialize, ladderObs} {
		runtime.GC() // the previous rung's garbage is not this rung's noise
		rung(e, layers)
	}
}

// ladderKernels times the batch kernel alone: KernelQueries queries of one
// relation against an n_s pool, every architecture at UntrainedDim, plus the
// per-query ScoreTails over all entities that the direct path runs.
func ladderKernels(e *env, layers layerSet) {
	rng := rand.New(rand.NewSource(e.seed))
	pool := sortedSample(rng, e.g.NumEntities, e.ns)
	all := sortedSample(rng, e.g.NumEntities, e.g.NumEntities)
	heads := make([]int32, e.sc.KernelQueries)
	for i := range heads {
		heads[i] = e.g.Test[i%len(e.g.Test)].H
	}
	rel := e.g.Test[0].R
	out := make([]float64, len(heads)*len(pool))
	perCandDim := func(d time.Duration, calls, cands, dim int) float64 {
		return float64(d) / float64(calls*cands*dim)
	}
	batch := func(m kgc.Model, p store.Precision) float64 {
		bs := kgc.NewBatchScorer(m, kgc.BatchOptions{Precision: p, Tile: kgc.TileFor(len(pool), m.Dim(), p)})
		bs.ScoreTailsBatch(heads, rel, pool, out) // build the store, size the scratch
		d := medianOf(5, func() { bs.ScoreTailsBatch(heads, rel, pool, out) })
		return perCandDim(d, len(heads), len(pool), m.Dim())
	}
	for i, name := range modelNames {
		m, err := kgc.New(name, e.g, e.sc.UntrainedDim, e.seed)
		if err != nil {
			continue
		}
		layers["kgc.score_ns_per_cand_dim."+name] = batch(m, store.Float64)
		if name == "DistMult" {
			layers["kgc.score_ns_per_cand_dim.DistMult.float32"] = batch(m, store.Float32)
			layers["kgc.score_ns_per_cand_dim.DistMult.int8"] = batch(m, store.Int8)
			// Computed operation count: one multiply and one add per
			// candidate·dim of the dot kernel.
			layers["kgc.score_gflops.DistMult"] = 2 / layers["kgc.score_ns_per_cand_dim.DistMult"]
		}
		if i < 2 {
			scores := make([]float64, len(all))
			d := medianOf(5, func() { m.ScoreTails(heads[0], rel, all, scores) })
			layers["kgc.score_tails_ns_per_cand_dim."+name] = perCandDim(d, 1, len(all), m.Dim())
		}
	}
}

// ladderStore times the pool gather and the store build at each precision
// over an |E| × TrainedDim table. Bytes are computed, not counted: per value,
// the source element (int8: one byte plus its share of the 8-byte block
// parameters) and the 8-byte float64 written.
func ladderStore(e *env, layers layerSet) {
	rows, dim := e.g.NumEntities, e.sc.TrainedDim
	rng := rand.New(rand.NewSource(e.seed))
	data := make([]float64, rows*dim)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	ids := sortedSample(rng, rows, e.ns)
	dst := make([]float64, len(ids)*dim)
	const gathers = 8
	srcBytes := map[store.Precision]float64{store.Float64: 8, store.Float32: 4, store.Int8: 2}
	for _, name := range precisionNames {
		prec, _ := store.ParsePrecision(name)
		var st *store.Store
		build := medianOf(3, func() { st, _ = store.FromRows(data, rows, dim, prec) })
		if prec != store.Float64 {
			layers["store.from_rows_ms."+name] = ms(build)
		}
		d := medianOf(5, func() {
			for i := 0; i < gathers; i++ {
				st.Gather(ids, dst)
			}
		})
		layers["store.gather_gbps."+name] = float64(gathers*len(ids)*dim) * (srcBytes[prec] + 8) / d.Seconds() / 1e9
		if prec == store.Int8 {
			nb := st.NBlocks()
			vals := make([]int8, len(ids)*dim)
			scale, zero := make([]float32, len(ids)*nb), make([]float32, len(ids)*nb)
			d := medianOf(5, func() {
				for i := 0; i < gathers; i++ {
					st.GatherQuantized(ids, vals, scale, zero)
				}
			})
			// Read and written: dim int8 values and 2·nb float32 parameters.
			layers["store.gather_quantized_gbps"] = float64(gathers*len(ids)*2*(dim+8*nb)) / d.Seconds() / 1e9
		}
	}
}

// ladderSerialize times the snapshot round trip a service job pays.
func ladderSerialize(e *env, layers layerSet) {
	m, err := kgc.New("DistMult", e.g, e.sc.ServiceDim, e.seed)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	layers["kgc.save_ms"] = ms(medianOf(5, func() {
		buf.Reset()
		_ = kgc.Save(&buf, m) // a bytes.Buffer write cannot fail
	}))
	layers["kgc.load_ms"] = ms(medianOf(5, func() {
		fresh, _ := kgc.New("DistMult", e.g, e.sc.ServiceDim, e.seed)
		_ = kgc.Load(bytes.NewReader(buf.Bytes()), fresh)
	}))
}

// probePass is the pass the eval and obs rungs time: DistMult, Random pools,
// the SampledQueries window.
func probePass(e *env, workers int, ctx context.Context) func() {
	if e.probe == nil {
		e.probe, _ = kgc.New("DistMult", e.g, e.sc.TrainedDim, e.seed)
	}
	m := e.probe
	provider := &eval.RandomProvider{NumEntities: e.g.NumEntities, N: e.ns}
	slice := window(e.g.Test, e.sc.SampledQueries, 0)
	opts := e.opts(0)
	opts.Workers, opts.Ctx = workers, ctx
	pass := func() { eval.Evaluate(m, e.g, slice, provider, opts) }
	pass() // entity store and scratch exist before anything is timed
	return pass
}

// allocsOf reports the bytes and objects f allocates.
func allocsOf(f func()) (mb, objects float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, float64(m1.Mallocs - m0.Mallocs)
}

// ladderObs prices the program's own tracing: the same pass with and without
// a live obs/trace span in Options.Ctx (the service always traces its jobs).
func ladderObs(e *env, layers layerSet) {
	plain := probePass(e, 0, nil)
	ctx, span := trace.NewStore(0, 0).StartTrace(context.Background(), "kgebench-probe")
	traced := probePass(e, 0, ctx)
	// Alternate the two so drift in the machine lands on both.
	var tp, tt []float64
	for i := 0; i < 7; i++ {
		tp = append(tp, float64(medianOf(1, plain)))
		tt = append(tt, float64(medianOf(1, traced)))
	}
	layers["obs.trace_overhead_pct"] = 100 * (median(tt)/median(tp) - 1)
	plainMB, _ := allocsOf(plain)
	tracedMB, _ := allocsOf(traced)
	layers["obs.trace_alloc_mb_per_pass"] = tracedMB - plainMB
	span.End()
}

// ladderEval measures the rungs between a kernel call and an Estimate: the
// 2·|R| pool draws per strategy, one pass's allocation, and how well a pass
// uses a second worker.
func ladderEval(e *env, fw *core.Framework, layers layerSet) {
	for name, s := range strategies {
		provider := fw.Provider(s)
		rng := rand.New(rand.NewSource(e.seed))
		var drawn, pools int
		d := medianOf(3, func() {
			drawn, pools = 0, 0
			for r := 0; r < e.g.NumRelations; r++ {
				for _, tail := range []bool{true, false} {
					drawn += len(provider.Candidates(int32(r), tail, rng))
					pools++
				}
			}
		})
		layers["eval.pool_draw_ms."+name] = ms(d)
		if name == "S" {
			layers["eval.pool_size_mean.S"] = float64(drawn) / float64(pools)
		}
	}
	pass := probePass(e, 0, nil)
	layers["eval.alloc_mb_per_pass"], layers["eval.allocs_per_pass"] = allocsOf(pass)
	one, two := probePass(e, 1, nil), probePass(e, 2, nil)
	layers["eval.parallel_eff"] = float64(medianOf(3, one)) / (2 * float64(medianOf(3, two)))
}

// ladderRecommender times every recommender's Fit and discretisation apart
// from the framework around them.
func ladderRecommender(e *env, layers layerSet) {
	for _, name := range ladderRecommenders {
		rc, err := recommender.ByName(name, e.seed)
		if err != nil {
			continue
		}
		fit := e.timed("Recommender.Fit", func() { err = rc.Fit(e.g) })
		if err != nil {
			continue
		}
		layers["recommender.fit_ms."+name] = ms(fit)
		layers["recommender.build_static_ms."+name] = ms(e.timed("recommender.BuildStatic", func() {
			recommender.BuildStatic(rc.Scores(), e.g, recommender.DefaultStaticOpts())
		}))
		if name == "L-WD" {
			layers["recommender.score_nnz.L-WD"] = float64(rc.Scores().NNZ())
		}
	}
}

// ladderCore measures what the Framework adds over the eval layer it wraps,
// and the paper's headline: sampled versus full at matched queries.
func ladderCore(e *env, trained []kgc.Model, slice []kg.Triple, layers layerSet) {
	fw, err := fitLWD(e)
	if err != nil {
		return
	}
	measureFidelity(e, fw, trained, slice).record(layers)

	opts := e.opts(0)
	m := trained[0]
	provider := fw.Provider(core.StrategyStatic)
	direct := medianOf(5, func() { eval.Evaluate(m, e.g, slice, provider, opts) })
	through := medianOf(5, func() { fw.Estimate(m, e.g, slice, core.StrategyStatic, opts) })
	layers["core.estimate_overhead_pct"] = 100 * (float64(through)/float64(direct) - 1)

	shared := medianOf(3, func() { fw.EstimateMany(trained, e.g, slice, core.StrategyProbabilistic, opts) })
	separate := medianOf(3, func() {
		for _, m := range trained {
			fw.Estimate(m, e.g, slice, core.StrategyProbabilistic, opts)
		}
	})
	layers["core.estimate_many_vs_separate"] = float64(shared) / float64(separate)
}
