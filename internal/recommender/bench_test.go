package recommender

import (
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/synth"
)

// benchGraph is the benchmark of record's host graph (bench/README.md).
func benchGraph(b *testing.B) *kg.Graph {
	b.Helper()
	ds, err := synth.Generate(synth.WikiKG2Sim())
	if err != nil {
		b.Fatal(err)
	}
	return ds.Graph
}

// BenchmarkFit times one cold Fit per recommender: the rung below
// kgebench's recommender.fit_ms.*.
func BenchmarkFit(b *testing.B) {
	g := benchGraph(b)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rec, err := ByName(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := rec.Fit(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildStatic times the discretization of each recommender's fitted
// scores: the rung below kgebench's recommender.build_static_ms.*.
func BenchmarkBuildStatic(b *testing.B) {
	g := benchGraph(b)
	for _, name := range Names() {
		rec, err := ByName(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Fit(g); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildStatic(rec.Scores(), g, DefaultStaticOpts())
			}
		})
	}
}
