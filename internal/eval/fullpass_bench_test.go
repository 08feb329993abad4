package eval

import (
	"math/rand"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// BenchmarkFullPass times a full-protocol pass on a graph above 16 384
// entities, where the score-buffer budget leaves three queries per chunk —
// the regime that used to fall back to the models' single-chain per-query
// loops and now runs the tile kernels like any other: 96 queries of four
// relations, DistMult at dim 128, every entity a candidate in both
// directions.
func BenchmarkFullPass(b *testing.B) {
	const entities, relations, queries, dim = 20000, 4, 96, 128
	rng := rand.New(rand.NewSource(5))
	g := &kg.Graph{NumEntities: entities, NumRelations: relations}
	for i := 0; i < queries; i++ {
		g.Test = append(g.Test, kg.Triple{
			H: int32(rng.Intn(entities)), R: int32(i % relations), T: int32(rng.Intn(entities)),
		})
	}
	opts := Options{Filter: kg.NewFilterIndex(g.Test), Seed: 1}
	b.Run("20k-entities", func(b *testing.B) {
		m, err := kgc.New("DistMult", g, dim, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			Evaluate(m, g, g.Test, NewFullProvider(entities), opts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*queries*entities*dim), "ns/cand·dim")
	})
}
