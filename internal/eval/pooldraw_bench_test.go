package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

// BenchmarkPoolDraw times pool draws — pools of n_s = |E|/10 on the benchmark
// of record's graph, fitted L-WD — per strategy, in two shapes. {R,S,P} is
// one serial Candidates sweep over all 2·|R| = 160 pools, the samplers' own
// cost. plan/{R,S,P}/workers=N is newPlan over the first 1 024 test triples,
// kgebench's estimate_sampled window, with the draw on 1 and on GOMAXPROCS
// workers: the rung right under Result.Stages.PoolDraw and kgebench's
// eval.pool_draw_ms.{R,S,P}, reported as draw-ms/op beside the whole plan.
// plan/{R,S,P}/hit is the same newPlan through a warm PoolMemo, what the
// second model evaluated on the same ground pays instead.
func BenchmarkPoolDraw(b *testing.B) {
	g, ns, providers := benchProviders(b)
	for _, c := range providers {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for b.Loop() {
				for r := int32(0); r < int32(g.NumRelations); r++ {
					c.p.Candidates(r, true, rng)
					c.p.Candidates(r, false, rng)
				}
			}
		})
	}
	window := g.Test[:min(1024, len(g.Test))]
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, c := range providers {
		for _, w := range workers {
			b.Run(fmt.Sprintf("plan/%s/workers=%d", c.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var draw time.Duration
				for b.Loop() {
					draw += newPlan(window, c.p, Options{Seed: 1, Workers: w}).poolTime
				}
				b.ReportMetric(draw.Seconds()*1e3/float64(b.N), "draw-ms/op")
			})
		}
		b.Run(fmt.Sprintf("plan/%s/hit", c.name), func(b *testing.B) {
			warm := NewPoolMemo(32<<20).Remember(c.p, ns)
			newPlan(window, warm, Options{Seed: 1})
			b.ReportAllocs()
			var draw time.Duration
			for b.Loop() {
				p := newPlan(window, warm, Options{Seed: 1})
				if !p.poolsCached {
					b.Fatal("the warm memo missed")
				}
				draw += p.poolTime
			}
			b.ReportMetric(draw.Seconds()*1e3/float64(b.N), "draw-ms/op")
		})
	}
}

// BenchmarkSampledPass times one sampled pass — pools already drawn, which is
// what every model after the first meets — over kgebench's estimate_sampled
// window (1 024 test triples, n_s = |E|/10) at the dim its untrained fleet
// runs at: ConvE, whose cost is building a query (conv + FC) and which used
// to build each one twice, beside DistMult, whose queries cost nothing.
// score-ms/op and rank-ms/op are the pass's Stages.Score and
// Stages.RankMerge, CPU time summed over its workers.
func BenchmarkSampledPass(b *testing.B) {
	g, ns, providers := benchProviders(b)
	window := g.Test[:min(1024, len(g.Test))]
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	for _, name := range []string{"ConvE", "DistMult"} {
		m, err := kgc.New(name, g, 64, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range providers[:2] {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				opts := Options{Filter: filter, Seed: 1}
				warm := NewPoolMemo(32<<20).Remember(c.p, ns)
				Evaluate(m, g, window, warm, opts)
				b.ReportAllocs()
				var score, rank time.Duration
				for b.Loop() {
					st := Evaluate(m, g, window, warm, opts).Stages
					score += st.Score
					rank += st.RankMerge
				}
				b.ReportMetric(score.Seconds()*1e3/float64(b.N), "score-ms/op")
				b.ReportMetric(rank.Seconds()*1e3/float64(b.N), "rank-ms/op")
			})
		}
	}
}

type benchProvider struct {
	name string
	p    CandidateProvider
}

// benchProviders fits L-WD on the benchmark of record's graph and returns it,
// n_s = |E|/10 and the R, S and P providers over it, in that order.
func benchProviders(b *testing.B) (*kg.Graph, int, []benchProvider) {
	ds, err := synth.Generate(synth.WikiKG2Sim())
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		b.Fatal(err)
	}
	ns := g.NumEntities / 10
	sets := recommender.BuildStatic(lwd.Scores(), g, recommender.DefaultStaticOpts())
	return g, ns, []benchProvider{
		{"R", &RandomProvider{NumEntities: g.NumEntities, N: ns}},
		{"S", &StaticProvider{Sets: sets, N: ns}},
		{"P", &ProbabilisticProvider{Scores: lwd.Scores(), N: ns}},
	}
}
