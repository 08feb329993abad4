package eval

import (
	"math/rand"
	"testing"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// BenchmarkFullPass times a full-protocol pass — DistMult at dim 128, every
// entity a candidate in both directions — in two shapes. "20k-entities" is
// 96 triples of four relations on a graph above 16 384 entities: three blocks
// of 64 directed queries, each sweeping the table once. "workload" is the
// shape of kgebench's full_ranking window: 256 triples over 47 relations of
// skewed size (most hold one to three) on 12 000 entities — eight blocks,
// each mixing several relations and both directions, where the executor used
// to sweep the table once per relation and direction for at most five
// queries (75 tasks, 150 sweeps). score-ms and rank-ms are the pass's two
// stage clocks, CPU time summed over workers.
func BenchmarkFullPass(b *testing.B) {
	const dim = 128
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		name                         string
		entities, relations, triples int
		rel                          func(i int) int32
	}{
		{"20k-entities", 20000, 4, 96, func(i int) int32 { return int32(i % 4) }},
		{"workload", 12000, 47, 256, func(int) int32 { u := rng.Float64(); return int32(47 * u * u * u) }},
	}
	for _, s := range shapes {
		g := &kg.Graph{NumEntities: s.entities, NumRelations: s.relations}
		for i := 0; i < s.triples; i++ {
			g.Test = append(g.Test, kg.Triple{
				H: int32(rng.Intn(s.entities)), R: s.rel(i), T: int32(rng.Intn(s.entities)),
			})
		}
		opts := Options{Filter: kg.NewFilterIndex(g.Test), Seed: 1}
		b.Run(s.name, func(b *testing.B) {
			m, err := kgc.New("DistMult", g, dim, 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var score, rank time.Duration // CPU time, summed over workers
			for b.Loop() {
				res := Evaluate(m, g, g.Test, NewFullProvider(s.entities), opts)
				score += res.Stages.Score
				rank += res.Stages.RankMerge
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*s.triples*s.entities*dim), "ns/cand·dim")
			b.ReportMetric(score.Seconds()*1e3/float64(b.N), "score-ms/op")
			b.ReportMetric(rank.Seconds()*1e3/float64(b.N), "rank-ms/op")
		})
	}
}
