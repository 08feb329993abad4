package recommender

import (
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/synth"
)

// benchGraph is the benchmark of record's host graph (bench/README.md).
func benchGraph(b *testing.B) *kg.Graph {
	b.Helper()
	return generate(b, synth.WikiKG2Sim())
}

func generate(tb testing.TB, cfg synth.Config) *kg.Graph {
	tb.Helper()
	ds, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Graph
}

// BenchmarkFit times one cold Fit per recommender: the rung below
// kgebench's recommender.fit_ms.*. The fb15k-sim sub-run is the opposite
// shape to the host graph's — 240 columns and a sparse W — so a product
// kernel that only wins against a near-dense W shows.
func BenchmarkFit(b *testing.B) {
	fit := func(g *kg.Graph, name string) func(b *testing.B) {
		return func(b *testing.B) {
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
		}
	}
	g := benchGraph(b)
	for _, name := range Names() {
		b.Run(name, fit(g, name))
	}
	sparseW := generate(b, synth.FB15kSim())
	for _, name := range []string{"DBH-T", "L-WD"} {
		b.Run("fb15k-sim/"+name, fit(sparseW, name))
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
