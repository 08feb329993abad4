// Benchmark harness: BenchmarkExperiment has one sub-benchmark per table and
// figure of the paper's evaluation section (run the full-scale versions with
// cmd/benchtables), plus micro-benchmarks for the framework's hot paths.
//
//	go test -bench=. -benchmem
package kgeval

import (
	"context"
	"fmt"
	"io"
	"testing"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/experiments"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/kp"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

// BenchmarkExperiment runs each paper artifact end to end at quick scale,
// one sub-benchmark per experiment id.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.ExperimentIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(experiments.ScaleQuick, io.Discard)
				if err := r.Run(id); err != nil {
					b.Fatalf("%s: %v", id, err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the framework's hot paths ---

type benchEnv struct {
	g      *kg.Graph
	model  kgc.Model
	filter *kg.FilterIndex
	fw     *core.Framework
}

var envCache *benchEnv

func env(b *testing.B) *benchEnv {
	b.Helper()
	if envCache != nil {
		return envCache
	}
	ds, err := synth.Generate(synth.CoDExMSim())
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	m := kgc.NewComplEx(g, 32, 1)
	cfg := kgc.DefaultTrainConfig()
	cfg.Epochs = 5
	kgc.Train(m, g, cfg)
	fw := core.New(recommender.NewLWD(), g.NumEntities/10, 3)
	if err := fw.Fit(g); err != nil {
		b.Fatal(err)
	}
	envCache = &benchEnv{
		g:      g,
		model:  m,
		filter: kg.NewFilterIndex(g.Train, g.Valid, g.Test),
		fw:     fw,
	}
	return envCache
}

// BenchmarkFullEvaluation measures the O(|E|²) baseline protocol.
func BenchmarkFullEvaluation(b *testing.B) {
	e := env(b)
	opts := eval.Options{Filter: e.filter, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FullEvaluate(e.model, e.g, e.g.Test, opts)
	}
}

// BenchmarkEstimate* measure the framework's sampled protocols — the
// speed-up over BenchmarkFullEvaluation is the paper's headline.
func BenchmarkEstimateRandom(b *testing.B)        { benchEstimate(b, core.StrategyRandom) }
func BenchmarkEstimateStatic(b *testing.B)        { benchEstimate(b, core.StrategyStatic) }
func BenchmarkEstimateProbabilistic(b *testing.B) { benchEstimate(b, core.StrategyProbabilistic) }

func benchEstimate(b *testing.B, s core.Strategy) {
	e := env(b)
	opts := eval.Options{Filter: e.filter, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.fw.Estimate(e.model, e.g, e.g.Test, s, opts)
	}
}

// --- relation-grouped batch scoring, one pass per iteration ---

type batchBenchEnv struct {
	g      *kg.Graph
	filter *kg.FilterIndex
	models map[string]kgc.Model // keyed "Name/dimN"
}

// batchBenchModels are the model/dim points the batch-path benchmarks cover:
// every architecture, with the deep models (TuckER, ConvE) at both a small
// dim and dim 256 — the store-backed batch lane is what makes dim 256
// tractable for them (the relation's O(d³)/O(conv) projection is computed
// once per chunk, not per candidate row).
var batchBenchModels = []struct {
	name string
	dim  int
}{
	{"TransE", 128}, {"DistMult", 256}, {"ComplEx", 256},
	{"RESCAL", 128}, {"RotatE", 128},
	{"TuckER", 32}, {"TuckER", 256}, {"ConvE", 256},
}

var batchEnvCache *batchBenchEnv

// batchEnv builds a graph whose entity table at dim 128 (~8 MB) dwarfs L2,
// so the benchmark exercises the memory behavior the batch path targets.
func batchEnv(b *testing.B) *batchBenchEnv {
	b.Helper()
	if batchEnvCache != nil {
		return batchEnvCache
	}
	ds, err := synth.Generate(synth.Config{
		Name: "batch-bench", NumEntities: 8000, NumRelations: 10, NumTypes: 12,
		NumTriples: 30000, ValidFrac: 0.02, TestFrac: 0.06, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	env := &batchBenchEnv{
		g:      g,
		filter: kg.NewFilterIndex(g.Train, g.Valid, g.Test),
		models: map[string]kgc.Model{},
	}
	// Untrained models: ns/op is independent of embedding values, and
	// random embeddings still rank honestly. The dot-product models run at
	// dim 256 so the scoring kernel (not per-pass setup) dominates.
	for _, mc := range batchBenchModels {
		m, err := kgc.New(mc.name, g, mc.dim, 23)
		if err != nil {
			b.Fatal(err)
		}
		env.models[fmt.Sprintf("%s/dim%d", mc.name, mc.dim)] = m
	}
	batchEnvCache = env
	return env
}

// BenchmarkEvaluateBatch runs one sampled evaluation pass per iteration
// (n_s = 10% of |E|, 512 query triples — ~26 queries per relation and
// direction, enough to amortize each chunk's query building) through the
// relation-grouped executor.
func BenchmarkEvaluateBatch(b *testing.B) {
	e := batchEnv(b)
	for _, mc := range batchBenchModels {
		key := fmt.Sprintf("%s/dim%d", mc.name, mc.dim)
		m := e.models[key]
		b.Run(key, func(b *testing.B) {
			prov := &eval.RandomProvider{NumEntities: e.g.NumEntities, N: e.g.NumEntities / 10}
			opts := eval.Options{Filter: e.filter, Seed: 1, MaxQueries: 512}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.Evaluate(m, e.g, e.g.Test, prov, opts)
			}
		})
	}
}

// BenchmarkEvaluateBatchTraced is BenchmarkEvaluateBatch with a live trace
// span in the context, so every pass records plan-compile, pool-draw and
// per-relation-chunk spans into the trace's flight recorder. The delta against
// BenchmarkEvaluateBatch is the tracing overhead (kgebench reports it as
// obs.trace_overhead_pct).
func BenchmarkEvaluateBatchTraced(b *testing.B) {
	e := batchEnv(b)
	st := trace.NewStore(0, 0)
	for _, mc := range batchBenchModels {
		key := fmt.Sprintf("%s/dim%d", mc.name, mc.dim)
		m := e.models[key]
		b.Run(key, func(b *testing.B) {
			prov := &eval.RandomProvider{NumEntities: e.g.NumEntities, N: e.g.NumEntities / 10}
			opts := eval.Options{Filter: e.filter, Seed: 1, MaxQueries: 512}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, span := st.StartTrace(context.Background(), "bench")
				opts.Ctx = ctx
				eval.Evaluate(m, e.g, e.g.Test, prov, opts)
				span.End()
			}
		})
	}
}

// BenchmarkEvaluateBatchPrecision measures the precision knob on the batch
// executor: one dot-product model at dim 256 scored from the float64,
// float32 and int8 entity stores.
func BenchmarkEvaluateBatchPrecision(b *testing.B) {
	e := batchEnv(b)
	m := e.models["DistMult/dim256"]
	for _, prec := range []store.Precision{store.Float64, store.Float32, store.Int8} {
		b.Run(fmt.Sprintf("DistMult/dim256/%s", prec), func(b *testing.B) {
			prov := &eval.RandomProvider{NumEntities: e.g.NumEntities, N: e.g.NumEntities / 10}
			opts := eval.Options{Filter: e.filter, Seed: 1, MaxQueries: 512, Precision: prec}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.Evaluate(m, e.g, e.g.Test, prov, opts)
			}
		})
	}
}

// BenchmarkEstimateMany measures the shared-plan multi-model pass against
// running the same fleet through separate Evaluate calls.
func BenchmarkEstimateMany(b *testing.B) {
	e := batchEnv(b)
	fleet := []kgc.Model{e.models["DistMult/dim256"], e.models["ComplEx/dim256"], e.models["TransE/dim128"]}
	prov := &eval.RandomProvider{NumEntities: e.g.NumEntities, N: e.g.NumEntities / 10}
	opts := eval.Options{Filter: e.filter, Seed: 1, MaxQueries: 256}
	b.Run("shared-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.EvaluateMany(fleet, e.g, e.g.Test, prov, opts)
		}
	})
	b.Run("separate-passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range fleet {
				eval.Evaluate(m, e.g, e.g.Test, prov, opts)
			}
		}
	})
}

// BenchmarkLWDFit measures Algorithm 1's two sparse multiplications.
func BenchmarkLWDFit(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := recommender.NewLWD()
		if err := l.Fit(e.g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildStatic measures the per-column CR/RR threshold optimization.
func BenchmarkBuildStatic(b *testing.B) {
	e := env(b)
	l := recommender.NewLWD()
	if err := l.Fit(e.g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommender.BuildStatic(l.Scores(), e.g, recommender.DefaultStaticOpts())
	}
}

// BenchmarkKPScore measures the Knowledge Persistence proxy.
func BenchmarkKPScore(b *testing.B) {
	e := env(b)
	prov := &eval.RandomProvider{NumEntities: e.g.NumEntities, N: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.Score(e.model, e.g.Test, prov, 1)
	}
}

// BenchmarkTrainEpoch measures one negative-sampling training epoch.
func BenchmarkTrainEpoch(b *testing.B) {
	e := env(b)
	m := kgc.NewDistMult(e.g, 32, 2)
	cfg := kgc.DefaultTrainConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kgc.Train(m, e.g, cfg)
	}
}

// BenchmarkSynthGenerate measures dataset generation.
func BenchmarkSynthGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.CoDExSSim()); err != nil {
			b.Fatal(err)
		}
	}
}
