package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

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
func BenchmarkPoolDraw(b *testing.B) {
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
	providers := []struct {
		name string
		p    CandidateProvider
	}{
		{"R", &RandomProvider{NumEntities: g.NumEntities, N: ns}},
		{"S", &StaticProvider{Sets: sets, N: ns}},
		{"P", &ProbabilisticProvider{Scores: lwd.Scores(), N: ns}},
	}
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
	}
}
