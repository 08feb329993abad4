package kgc

import (
	"math/rand"

	"kgeval/internal/kg"
)

// TrainConfig controls the negative-sampling trainer.
type TrainConfig struct {
	Epochs int // passes over the training split
	Seed   int64
	// EpochCallback, when non-nil, runs after each epoch (1-based); the
	// correlation experiments evaluate the model here. Returning false
	// stops training early.
	EpochCallback func(epoch int) bool
}

// The trainer's hyperparameters, tuned once for the synthetic datasets.
const (
	trainLR         = 0.1 // Adagrad learning rate
	trainNegSamples = 4   // corrupted triples per positive
	trainMargin     = 2   // margin for LossMargin models
)

// DefaultTrainConfig returns sensible defaults for the synthetic datasets.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 15, Seed: 1}
}

// DefaultDim returns a per-model embedding size that keeps each model's
// per-step cost comparable: models with O(d²)/O(d³) interaction terms get
// smaller d, as in the original implementations (TuckER's d_r ≪ d_e, etc.).
func DefaultDim(model string) int {
	switch model {
	case "RESCAL":
		return 16
	case "TuckER":
		return 10
	case "ConvE":
		return 16
	default:
		return 32
	}
}

// Train fits the model on g.Train with uniform negative sampling. For
// reciprocal models (ConvE) each triple is presented in both directions with
// tail-only corruption; all other models get head- and tail-corruption.
func Train(m Trainable, g *kg.Graph, cfg TrainConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	loss := m.defaultLoss()
	triples := append([]kg.Triple(nil), g.Train...)
	n := int32(g.NumEntities)

	// trainOne presents (h, r, t) and trainNegSamples corruptions of it. The
	// logistic loss steps on the positive at once and on each negative alone;
	// the margin loss steps on a pair only when it violates the margin.
	trainOne := func(h, r, t int32, corruptHead bool) {
		sPos := m.ScoreTriple(h, r, t)
		if loss == LossLogistic {
			m.gradStep(h, r, t, sigmoid(sPos)-1, trainLR)
		}
		for k := 0; k < trainNegSamples; k++ {
			nh, nt := h, t
			if corruptHead && k%2 == 1 {
				nh = rng.Int31n(n)
				if nh == h {
					continue
				}
			} else {
				nt = rng.Int31n(n)
				if nt == t {
					continue
				}
			}
			sNeg := m.ScoreTriple(nh, r, nt)
			switch {
			case loss == LossLogistic:
				m.gradStep(nh, r, nt, sigmoid(sNeg), trainLR)
			case trainMargin-sPos+sNeg > 0:
				m.gradStep(h, r, t, -1, trainLR)
				m.gradStep(nh, r, nt, 1, trainLR)
			}
		}
	}

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
		for _, tr := range triples {
			if m.reciprocal() {
				// Tail corruption in both directions covers head queries.
				trainOne(tr.H, tr.R, tr.T, false)
				trainOne(tr.T, tr.R+int32(g.NumRelations), tr.H, false)
			} else {
				trainOne(tr.H, tr.R, tr.T, true)
			}
		}
		if cfg.EpochCallback != nil && !cfg.EpochCallback(epoch) {
			return
		}
	}
}
