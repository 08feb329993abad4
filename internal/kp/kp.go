package kp

import (
	"math"
	"math/rand"
	"time"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// Config controls the KP evaluation proxy.
type Config struct {
	// NumPositives bounds the positive triples sampled into KP⁺ (0 = all).
	NumPositives int
	Seed         int64
}

// DefaultConfig mirrors the scale used by the reference implementation.
func DefaultConfig() Config {
	return Config{NumPositives: 1000, Seed: 1}
}

const (
	negativesPerPositive = 1  // corrupted triples per positive in KP⁻
	directions           = 16 // of the sliced Wasserstein approximation
)

// Result is one KP evaluation.
type Result struct {
	// Score is the sliced Wasserstein distance between the KP⁺ and KP⁻
	// diagrams. Larger means the model separates positives from corrupted
	// triples more — the quantity whose correlation with the ranking
	// metrics the paper examines.
	Score   float64
	Elapsed time.Duration
}

// Score computes the KP metric for a model over a split. Negative triples
// corrupt the tail with candidates drawn from the provider — this is how the
// paper combines KP with its Random/Probabilistic/Static sampling (Table 7's
// "K P" columns).
func Score(m kgc.Model, g *kg.Graph, split []kg.Triple, negatives eval.CandidateProvider, cfg Config) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))

	positives := split
	if cfg.NumPositives > 0 && cfg.NumPositives < len(split) {
		shuffled := append([]kg.Triple(nil), split...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		positives = shuffled[:cfg.NumPositives]
	}

	// KP⁺ weighs each positive triple, KP⁻ each tail corruption drawn from
	// the provider's per-relation pools, by the sigmoid of its model score.
	posScores, negTriples, negScores := eval.CorruptTails(m, positives, negatives, negativesPerPositive, nil, rng)
	pos := make([]Edge, len(positives))
	for i, t := range positives {
		pos[i] = Edge{U: t.H, V: t.T, W: sigmoid(posScores[i])}
	}
	neg := make([]Edge, len(negTriples))
	for i, t := range negTriples {
		neg[i] = Edge{U: t.H, V: t.T, W: sigmoid(negScores[i])}
	}

	sw := SlicedWasserstein(Diagram(pos), Diagram(neg), directions)
	return Result{Score: sw, Elapsed: time.Since(start)}
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	z := math.Exp(x)
	return z / (1 + z)
}
