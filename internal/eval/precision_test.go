package eval

import (
	"math"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/synth"
)

// precisionGraph is evalGraph with a much larger test split: the MRR
// deviation between precisions is rank-flip noise that averages out as
// 1/√queries, so the gate needs enough queries to measure the systematic
// deviation rather than a handful of individual flips.
func precisionGraph(t *testing.T) *kg.Graph {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "precision-test", NumEntities: 300, NumRelations: 8, NumTypes: 10,
		NumTriples: 4000, ValidFrac: 0.05, TestFrac: 0.25, Seed: 321,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

// Reduced-precision gathers are an approximation, so the gate is a bound
// rather than bit-identity: for every model architecture and every sampling
// strategy, evaluating at Float32 or Int8 must land within 1e-3 MRR of the
// Float64 reference. Models are lightly trained first — the deviation bound
// is about rank stability around the true answer, which a pure random
// initialization does not meaningfully exercise.
func TestPrecisionDeviationWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains all 7 models on the large precision split; minutes under -race")
	}
	const maxDev = 1e-3
	g := precisionGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	providers := equivalenceProviders(t, g)

	for _, name := range kgc.ModelNames() {
		m, err := kgc.New(name, g, 32, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := kgc.DefaultTrainConfig()
		cfg.Epochs = 10
		kgc.Train(m.(kgc.Trainable), g, cfg)

		for pname, p := range providers {
			ref := Evaluate(m, g, g.Test, p, Options{Filter: filter, Seed: 9, Workers: 2})
			for _, prec := range []store.Precision{store.Float32, store.Int8} {
				got := Evaluate(m, g, g.Test, p, Options{Filter: filter, Seed: 9, Workers: 2, Precision: prec})
				if dev := math.Abs(got.MRR - ref.MRR); dev > maxDev {
					t.Errorf("%s/%s/%v: MRR %v deviates from float64 %v by %v (> %v)",
						name, pname, prec, got.MRR, ref.MRR, dev, maxDev)
				}
				if got.Queries != ref.Queries {
					t.Errorf("%s/%s/%v: %d queries, reference %d", name, pname, prec, got.Queries, ref.Queries)
				}
			}
		}
	}
}

// The precision knob must not disturb the Float64 path: an explicit
// Precision of Float64 is the zero value and stays bit-identical to the
// oracle.
func TestFloat64PrecisionIsDefault(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m, err := kgc.New("RotatE", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := &RandomProvider{NumEntities: g.NumEntities, N: 30}
	checkAgainstOracle(t, "explicit Float64", m, m, g, g.Test, p, Options{Filter: filter, Seed: 9, Precision: store.Float64})
}
