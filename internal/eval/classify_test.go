package eval

import (
	"math"
	"testing"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
)

func TestROCAUCKnownValues(t *testing.T) {
	// Perfect separation.
	if auc := ROCAUC([]float64{3, 4}, []float64{1, 2}); auc != 1 {
		t.Fatalf("perfect AUC = %v, want 1", auc)
	}
	// Perfectly wrong.
	if auc := ROCAUC([]float64{1, 2}, []float64{3, 4}); auc != 0 {
		t.Fatalf("inverted AUC = %v, want 0", auc)
	}
	// All tied → 0.5.
	if auc := ROCAUC([]float64{1, 1}, []float64{1, 1}); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v, want 0.5", auc)
	}
	// Hand-computed: pos {3,1}, neg {2}: pairs (3>2)=1, (1<2)=0 → 0.5.
	if auc := ROCAUC([]float64{3, 1}, []float64{2}); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.5", auc)
	}
	if ROCAUC(nil, []float64{1}) != 0 || ROCAUC([]float64{1}, nil) != 0 {
		t.Fatal("empty sides must give 0")
	}
}

func TestROCAUCMatchesPairwiseDefinition(t *testing.T) {
	pos := []float64{0.9, 0.4, 0.7, 0.4}
	neg := []float64{0.3, 0.4, 0.8}
	wins, ties := 0.0, 0.0
	for _, p := range pos {
		for _, n := range neg {
			if p > n {
				wins++
			} else if p == n {
				ties++
			}
		}
	}
	want := (wins + ties/2) / float64(len(pos)*len(neg))
	if got := ROCAUC(pos, neg); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ROCAUC = %v, pairwise definition = %v", got, want)
	}
}

func TestAUCPRKnownValues(t *testing.T) {
	// Perfect separation: area 1.
	if a := AUCPR([]float64{3, 4}, []float64{1, 2}); math.Abs(a-1) > 1e-12 {
		t.Fatalf("perfect AUCPR = %v, want 1", a)
	}
	if AUCPR(nil, []float64{1}) != 0 {
		t.Fatal("no positives must give 0")
	}
	// All negatives above positives: precision only at full recall.
	a := AUCPR([]float64{1}, []float64{2, 3})
	if a >= 0.5 {
		t.Fatalf("inverted AUCPR = %v, want < 0.5", a)
	}
}

// The paper's point (§2/§7): triplet classification against random
// negatives is much easier than against recommender-sampled hard negatives.
// A NaN score sorts below every number and ties with NaN, as in the ranking
// protocol, in both areas. Each value is computed under a deadline: an area
// that never leaves a tie group holding a NaN fails here instead of hanging.
func TestAUCNaNScoresSortLowest(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		label    string
		area     func(pos, neg []float64) float64
		pos, neg []float64
		want     float64
	}{
		{"ROCAUC, NaN positive", ROCAUC, []float64{nan, 1}, []float64{0.5}, 0.5},
		{"ROCAUC, NaN negative", ROCAUC, []float64{1}, []float64{nan, 2}, 0.5},
		{"ROCAUC, all NaN", ROCAUC, []float64{nan, nan}, []float64{nan}, 0.5},
		{"AUCPR, NaN positive", AUCPR, []float64{nan, 1}, []float64{0.5}, 0.5 + 0.5*2/3},
		{"AUCPR, all NaN", AUCPR, []float64{nan}, []float64{nan}, 0.5},
	} {
		got := make(chan float64, 1)
		go func() { got <- c.area(c.pos, c.neg) }()
		select {
		case v := <-got:
			if math.Abs(v-c.want) > 1e-12 {
				t.Errorf("%s: %v, want %v", c.label, v, c.want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no result within 2s", c.label)
		}
	}
}

func TestClassificationHardNegativesAreHarder(t *testing.T) {
	g := evalGraph(t)
	m := kgc.NewComplEx(g, 16, 2)
	cfg := kgc.DefaultTrainConfig()
	cfg.Epochs = 8
	kgc.Train(m, g, cfg)

	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)

	easy := Classify(m, g, g.Test, &RandomProvider{NumEntities: g.NumEntities, N: 100}, 2, filter, 3)
	hard := Classify(m, g, g.Test, &ProbabilisticProvider{Scores: lwd.Scores(), N: 100}, 2, filter, 3)

	if easy.Positives == 0 || easy.Negatives == 0 {
		t.Fatalf("degenerate classification: %+v", easy)
	}
	if easy.ROCAUC <= hard.ROCAUC {
		t.Fatalf("random-negative AUC (%.3f) must exceed hard-negative AUC (%.3f)",
			easy.ROCAUC, hard.ROCAUC)
	}
	if easy.ROCAUC < 0.75 {
		t.Fatalf("random-negative AUC = %.3f — should be a nearly solved task", easy.ROCAUC)
	}
}

func TestClassifyNilFilterBuilds(t *testing.T) {
	g := evalGraph(t)
	res := Classify(formulaModel{}, g, g.Test[:20], &RandomProvider{NumEntities: g.NumEntities, N: 20}, 1, nil, 1)
	if res.Positives != 20 {
		t.Fatalf("Positives = %d, want 20", res.Positives)
	}
}
