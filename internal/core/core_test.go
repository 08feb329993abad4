package core

import (
	"math"
	"testing"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

func coreGraph(t *testing.T) (*kg.Graph, *synth.Dataset) {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "core-test", NumEntities: 400, NumRelations: 10, NumTypes: 10,
		NumTriples: 5000, ValidFrac: 0.06, TestFrac: 0.06, NoiseRate: 0.015, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph, ds
}

func TestFrameworkEndToEnd(t *testing.T) {
	g, _ := coreGraph(t)
	m := kgc.NewDistMult(g, 16, 3)
	cfg := kgc.DefaultTrainConfig()
	cfg.Epochs = 6
	kgc.Train(m, g, cfg)

	fw := New(recommender.NewLWD(), 40, 17)
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	opts := eval.Options{Filter: filter}

	full := FullEvaluate(m, g, g.Test, opts)
	if full.MRR <= 0 || full.MRR > 1 {
		t.Fatalf("full MRR = %v out of (0,1]", full.MRR)
	}
	for _, s := range Strategies() {
		est := fw.Estimate(m, g, g.Test, s, opts)
		if est.MRR <= 0 || est.MRR > 1 {
			t.Fatalf("%v estimate MRR = %v out of (0,1]", s, est.MRR)
		}
		if est.CandidatesScored >= full.CandidatesScored {
			t.Fatalf("%v scored %d candidates, full scored %d — sampling must reduce work",
				s, est.CandidatesScored, full.CandidatesScored)
		}
	}

	// Guided estimates must beat random on MAE to the true value.
	r := fw.Estimate(m, g, g.Test, StrategyRandom, opts)
	p := fw.Estimate(m, g, g.Test, StrategyProbabilistic, opts)
	s := fw.Estimate(m, g, g.Test, StrategyStatic, opts)
	errR := math.Abs(r.MRR - full.MRR)
	errP := math.Abs(p.MRR - full.MRR)
	errS := math.Abs(s.MRR - full.MRR)
	if errP >= errR || errS >= errR {
		t.Fatalf("guided errors must beat random: full=%.3f R=%.3f P=%.3f S=%.3f", full.MRR, r.MRR, p.MRR, s.MRR)
	}
}

// Estimate has one seed rule: 0 means the framework's seed. A literal seed 0
// goes through eval.Evaluate with the framework's provider, the route
// Estimate's doc names, and must not be replaced on the way.
func TestEstimateSeedZeroMeansFrameworkSeed(t *testing.T) {
	g, _ := coreGraph(t)
	m := kgc.NewComplEx(g, 16, 3)
	fw := New(recommender.NewLWD(), 40, 17)
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)

	unset := fw.Estimate(m, g, g.Test, StrategyRandom, eval.Options{Filter: filter})
	def := fw.Estimate(m, g, g.Test, StrategyRandom, eval.Options{Filter: filter, Seed: fw.Seed})
	if unset.Metrics != def.Metrics {
		t.Fatalf("seed 0 %+v must equal framework-seed run %+v", unset.Metrics, def.Metrics)
	}

	literalZero := eval.Evaluate(m, g, g.Test, fw.Provider(StrategyRandom), eval.Options{Filter: filter, Seed: 0})
	if literalZero.Metrics == def.Metrics {
		t.Fatal("a literal seed-0 evaluation and the framework seed produced identical metrics — seed 0 was likely replaced")
	}
}

// EstimateMany must agree with per-model Estimate under identical options.
func TestEstimateManyMatchesEstimate(t *testing.T) {
	g, _ := coreGraph(t)
	ms := []kgc.Model{kgc.NewDistMult(g, 16, 3), kgc.NewComplEx(g, 16, 4), kgc.NewTransE(g, 16, 5)}
	fw := New(recommender.NewLWD(), 40, 17)
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	opts := eval.Options{Filter: filter, Seed: 6}
	for _, s := range Strategies() {
		many := fw.EstimateMany(ms, g, g.Test, s, opts)
		for i, m := range ms {
			one := fw.Estimate(m, g, g.Test, s, opts)
			if many[i].Metrics != one.Metrics {
				t.Errorf("%v/%s: EstimateMany %+v != Estimate %+v", s, m.Name(), many[i].Metrics, one.Metrics)
			}
		}
	}
	full := FullEvaluateMany(ms, g, g.Test, opts)
	for i, m := range ms {
		one := FullEvaluate(m, g, g.Test, opts)
		if full[i].Metrics != one.Metrics {
			t.Errorf("full/%s: FullEvaluateMany %+v != FullEvaluate %+v", m.Name(), full[i].Metrics, one.Metrics)
		}
	}
}

func TestFrameworkUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when using unfitted framework")
		}
	}()
	New(recommender.NewLWD(), 10, 1).Provider(StrategyRandom)
}

// n_s < 1 would draw empty pools, which rank every answer first: New
// refuses it rather than report a perfect MRR.
func TestFrameworkNonPositiveSamplesPanics(t *testing.T) {
	for _, ns := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(rec, %d, 1) did not panic", ns)
				}
			}()
			New(recommender.NewLWD(), ns, 1)
		}()
	}
}

func TestFrameworkFitErrorPropagates(t *testing.T) {
	g := &kg.Graph{Name: "untyped", NumEntities: 3, NumRelations: 1,
		Train: []kg.Triple{{H: 0, R: 0, T: 1}}}
	fw := New(recommender.NewLWDT(), 10, 1) // L-WD-T needs types
	if err := fw.Fit(g); err == nil {
		t.Fatal("Fit must propagate recommender errors")
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{StrategyRandom: "R", StrategyProbabilistic: "P", StrategyStatic: "S"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy must still stringify")
	}
	if len(Strategies()) != 3 {
		t.Error("Strategies() must list all three")
	}
}

// Table 2 shape: the zero-score pairs are numerous, and the false easy
// negatives are a tiny handful dominated by the generator's noise triples.
func TestMineEasyNegatives(t *testing.T) {
	g, ds := coreGraph(t)
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	rep := MineEasyNegatives(lwd, g)
	if rep.Dataset != g.Name {
		t.Fatalf("Dataset = %q", rep.Dataset)
	}
	// The zero-score fraction is dataset-dependent (Table 2 spans 5.4%
	// on ogbl-wikikg2 to 58.4% on FB15k-237); here we only require that
	// mining finds a nontrivial amount.
	if rep.Fraction <= 0.005 {
		t.Fatalf("easy-negative fraction = %.4f, want > 0.005", rep.Fraction)
	}
	total := g.NumTriples()
	if len(rep.FalseEasy) >= total/10 {
		t.Fatalf("false easy negatives = %d of %d triples — far too many", len(rep.FalseEasy), total)
	}
	// Every false easy negative must have a zero score on one endpoint.
	scores := lwd.Scores()
	for _, tr := range rep.FalseEasy {
		d := scores.Score(tr.H, recommender.DomainCol(int(tr.R), g.NumRelations))
		r := scores.Score(tr.T, recommender.RangeCol(int(tr.R), g.NumRelations))
		if d != 0 && r != 0 {
			t.Fatalf("triple %v flagged but both endpoints score nonzero", tr)
		}
	}
	_ = ds
}

// Table 3 shape: per-pair sampling needs orders of magnitude more samples
// than per-relation sampling.
func TestSamplingComplexity(t *testing.T) {
	g, _ := coreGraph(t)
	rep := SamplingComplexity(g, 0.025)
	if rep.PairQueries == 0 || rep.RelationSlots == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.ReductionRatio <= 5 {
		t.Fatalf("reduction ratio = %.1f, want > 5 (pairs ≫ relations)", rep.ReductionRatio)
	}
	if rep.PairSamples != int64(rep.PairQueries)*int64(0.025*float64(g.NumEntities)) {
		t.Fatalf("PairSamples arithmetic wrong: %+v", rep)
	}
}

func TestSamplingComplexityEmptyTest(t *testing.T) {
	g := &kg.Graph{Name: "e", NumEntities: 10, NumRelations: 2}
	rep := SamplingComplexity(g, 0.1)
	if rep.ReductionRatio != 0 || rep.PairSamples != 0 {
		t.Fatalf("empty test split: %+v", rep)
	}
}
