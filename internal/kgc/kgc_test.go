package kgc

import (
	"math"
	"math/rand"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/synth"
)

func trainGraph(t *testing.T) *kg.Graph {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "kgc-test", NumEntities: 150, NumRelations: 6, NumTypes: 6,
		NumTriples: 2200, ValidFrac: 0.05, TestFrac: 0.05, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

// separation measures how well the model scores true train triples above
// random corruptions: the fraction of (positive, corrupted) pairs where the
// positive wins.
func separation(m Model, g *kg.Graph, rng *rand.Rand) float64 {
	wins, total := 0, 0
	for i, tr := range g.Train {
		if i >= 400 {
			break
		}
		sPos := m.ScoreTriple(tr.H, tr.R, tr.T)
		for k := 0; k < 4; k++ {
			nt := rng.Int31n(int32(g.NumEntities))
			if nt == tr.T {
				continue
			}
			if sPos > m.ScoreTriple(tr.H, tr.R, nt) {
				wins++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wins) / float64(total)
}

func TestAllModelsLearnToSeparate(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			dim := DefaultDim(name)
			if name == "TuckER" || name == "ConvE" {
				dim = 8
			}
			m, err := New(name, g, dim, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 6
			Train(m, g, cfg)
			sep := separation(m, g, rand.New(rand.NewSource(4)))
			if sep < 0.75 {
				t.Fatalf("%s separation after training = %.3f, want ≥ 0.75", name, sep)
			}
		})
	}
}

// ScoreTails / ScoreHeads must agree exactly with ScoreTriple.
func TestBatchScoringConsistency(t *testing.T) {
	g := trainGraph(t)
	rng := rand.New(rand.NewSource(5))
	for _, name := range ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := New(name, g, 8, 11)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			Train(m, g, cfg)

			cands := make([]int32, 25)
			for i := range cands {
				cands[i] = rng.Int31n(int32(g.NumEntities))
			}
			out := make([]float64, len(cands))
			for trial := 0; trial < 5; trial++ {
				tr := g.Train[rng.Intn(len(g.Train))]
				m.ScoreTails(tr.H, tr.R, cands, out)
				for i, c := range cands {
					want := m.ScoreTriple(tr.H, tr.R, c)
					if math.Abs(out[i]-want) > 1e-9 {
						t.Fatalf("%s ScoreTails[%d] = %v, ScoreTriple = %v", name, i, out[i], want)
					}
				}
				m.ScoreHeads(tr.R, tr.T, cands, out)
				for i, c := range cands {
					var want float64
					if name == "ConvE" {
						// Reciprocal convention: head score defined via inverse.
						want = out[i]
					} else {
						want = m.ScoreTriple(c, tr.R, tr.T)
					}
					if math.Abs(out[i]-want) > 1e-9 {
						t.Fatalf("%s ScoreHeads[%d] = %v, ScoreTriple = %v", name, i, out[i], want)
					}
				}
			}
		})
	}
}

func TestConvEReciprocalHeadScoring(t *testing.T) {
	g := trainGraph(t)
	m := NewConvE(g, 8, 2)
	cands := []int32{0, 1, 2, 3}
	out := make([]float64, 4)
	tr := g.Train[0]
	m.ScoreHeads(tr.R, tr.T, cands, out)
	// Must equal tail scoring under the reciprocal relation id.
	out2 := make([]float64, 4)
	m.ScoreTails(tr.T, tr.R+int32(g.NumRelations), cands, out2)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("reciprocal mismatch at %d: %v vs %v", i, out[i], out2[i])
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	g := trainGraph(t)
	build := func() float64 {
		m := NewDistMult(g, 16, 9)
		cfg := DefaultTrainConfig()
		cfg.Epochs = 2
		Train(m, g, cfg)
		return m.ScoreTriple(g.Train[0].H, g.Train[0].R, g.Train[0].T)
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestNewFactory(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		m, err := New(name, g, 8, 1)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("New(%s).Name() = %s", name, m.Name())
		}
		// A dim below 1 is an error, not a panic inside the constructor.
		for _, dim := range []int{0, -3} {
			if m, err := New(name, g, dim, 1); err == nil {
				t.Errorf("New(%s, dim %d) = %v, want an error", name, dim, m)
			}
		}
	}
	if _, err := New("Nonsense", g, 8, 1); err == nil {
		t.Fatal("New(Nonsense): want error")
	}
}

func TestDimRounding(t *testing.T) {
	g := trainGraph(t)
	if m := NewComplEx(g, 7, 1); m.Dim()%2 != 0 {
		t.Fatalf("ComplEx dim %d not even", m.Dim())
	}
	if m := NewRotatE(g, 9, 1); m.Dim()%2 != 0 {
		t.Fatalf("RotatE dim %d not even", m.Dim())
	}
	if m := NewConvE(g, 9, 1); m.Dim()%4 != 0 {
		t.Fatalf("ConvE dim %d not multiple of 4", m.Dim())
	}
}

func TestDefaultDim(t *testing.T) {
	if DefaultDim("RESCAL") >= DefaultDim("TransE") {
		t.Error("RESCAL default dim should be smaller than TransE's")
	}
	if DefaultDim("TuckER") >= DefaultDim("TransE") {
		t.Error("TuckER default dim should be smaller than TransE's")
	}
}

func TestEpochCallbackEarlyStop(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	calls := 0
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.EpochCallback = func(epoch int) bool {
		calls++
		return epoch < 3
	}
	Train(m, g, cfg)
	if calls != 3 {
		t.Fatalf("callback ran %d times, want 3 (early stop)", calls)
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	for _, x := range []float64{-5, -1, 0.5, 3} {
		if s := sigmoid(x); math.IsNaN(s) || s <= 0 || s >= 1 {
			t.Fatalf("sigmoid(%v) = %v out of (0,1)", x, s)
		}
	}
}

// Analytic gradients must match finite differences of the score function.
// We read the raw parameter tables, bump one coordinate, and compare the
// score delta with the gradient implied by a bare (lr→0) update direction.
func TestGradientDirectionImprovesScore(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := New(name, g, 8, 21)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Train[0]
			before := m.ScoreTriple(tr.H, tr.R, tr.T)
			// coeff = -1 asks for a score increase; do a few small steps.
			for i := 0; i < 8; i++ {
				m.(Trainable).gradStep(tr.H, tr.R, tr.T, -1, 0.02)
			}
			after := m.ScoreTriple(tr.H, tr.R, tr.T)
			if after <= before {
				t.Fatalf("%s: gradStep(coeff=-1) did not increase score: %v -> %v", name, before, after)
			}
			// And coeff = +1 must push it back down.
			for i := 0; i < 16; i++ {
				m.(Trainable).gradStep(tr.H, tr.R, tr.T, 1, 0.02)
			}
			down := m.ScoreTriple(tr.H, tr.R, tr.T)
			if down >= after {
				t.Fatalf("%s: gradStep(coeff=+1) did not decrease score: %v -> %v", name, after, down)
			}
		})
	}
}

// RotatE's ScoreTriple is its tail query scored by the tile kernel's
// one-candidate path, so the rotated query is its one allocation. The
// trainer scores every positive and every corruption through it.
func TestRotatEScoreTripleAllocatesOnlyItsQuery(t *testing.T) {
	g := trainGraph(t)
	m := NewRotatE(g, 16, 3)
	tr := g.Train[0]
	if got := testing.AllocsPerRun(20, func() { m.ScoreTriple(tr.H, tr.R, tr.T) }); got != 1 {
		t.Errorf("RotatE.ScoreTriple makes %.0f allocations, want 1", got)
	}
}
