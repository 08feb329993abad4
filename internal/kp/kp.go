package kp

import (
	"math"
	"math/rand"
	"time"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

const (
	numPositives         = 1000 // positive triples sampled into KP⁺, the reference implementation's scale
	negativesPerPositive = 1    // corrupted triples per positive in KP⁻
	directions           = 16   // of the sliced Wasserstein approximation
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
// "K P" columns). seed draws the positives (when the split has more than
// numPositives) and their corruptions.
func Score(m kgc.Model, split []kg.Triple, negatives eval.CandidateProvider, seed int64) Result {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))

	positives := split
	if numPositives < len(split) {
		shuffled := append([]kg.Triple(nil), split...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		positives = shuffled[:numPositives]
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
