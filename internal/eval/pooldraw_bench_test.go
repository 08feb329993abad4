package eval

import (
	"math/rand"
	"testing"

	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

// BenchmarkPoolDraw times one evaluation's worth of pool draws — 2·|R| = 160
// pools of n_s = |E|/10 on the benchmark of record's graph, fitted L-WD — per
// strategy: the rung below kgebench's eval.pool_draw_ms.{R,S,P}.
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
	for _, c := range []struct {
		name string
		p    CandidateProvider
	}{
		{"R", &RandomProvider{NumEntities: g.NumEntities, N: ns}},
		{"S", &StaticProvider{Sets: sets, N: ns}},
		{"P", &ProbabilisticProvider{Scores: lwd.Scores(), N: ns}},
	} {
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
}
