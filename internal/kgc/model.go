// Package kgc implements the knowledge-graph-completion models the paper
// evaluates its framework on (§5.2): TransE, DistMult, ComplEx, RESCAL,
// RotatE, TuckER and ConvE, together with a negative-sampling trainer using
// per-parameter Adagrad for embedding rows and SGD for shared dense
// parameters — a pure-Go, CPU-only stand-in for the LibKGE / PyTorch models
// used in the original study.
//
// The evaluation framework (internal/eval) is model-agnostic and consumes
// only the Model interface, through the BatchScorer NewBatchScorer makes of
// it; training exists so that experiments can measure how the estimated
// metrics track the true filtered metrics *during* training, as the paper
// does over 100 epochs.
//
// Each built-in model is a base plus two query builders (batchNative): the
// embedded base states once its name, dim, entity table, bias, tile kernel
// kind and training defaults, and the builders write its queries once. A
// block of queries and the per-query ScoreTails/ScoreHeads run the same
// builder and the same tile kernel, so their scores agree bit for bit by
// construction. The training gradients keep their closed forms, and so do
// the ScoreTriple of every model but RotatE, whose ScoreTriple is its
// builder's rotation scored by its tile kernel.
package kgc

import (
	"fmt"
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// Model scores candidate triples; higher scores mean more plausible.
// Implementations are safe for concurrent use after training completes: one
// loaded model may serve every goroutine that evaluates it.
//
// A block of queries — any relations, either direction — is scored against
// the candidate pool it shares through NewBatchScorer, which gives the
// built-in models a store-backed lane over their own query builders and any
// other Model an adapter over these three methods.
type Model interface {
	// Name identifies the model in tables ("TransE", "ComplEx", ...).
	Name() string
	// Dim returns the entity embedding dimensionality.
	Dim() int
	// ScoreTriple returns the plausibility score of (h, r, t).
	ScoreTriple(h, r, t int32) float64
	// ScoreTails writes the scores of (h, r, cands[i]) into out[i].
	// len(out) must equal len(cands). Query-side work is done once per
	// call, so batching candidates is much cheaper than repeated
	// ScoreTriple calls.
	ScoreTails(h, r int32, cands []int32, out []float64)
	// ScoreHeads writes the scores of (cands[i], r, t) into out[i].
	ScoreHeads(r, t int32, cands []int32, out []float64)
}

// Loss selects the training objective.
type Loss int

const (
	// LossLogistic is the binary logistic (softplus) loss over positive and
	// corrupted triples — used by the bilinear models.
	LossLogistic Loss = iota
	// LossMargin is the pairwise margin ranking loss — used by the
	// translational/rotational distance models.
	LossMargin
)

// Trainable is a Model that can be trained by this package's Trainer: a
// built-in model, whose embedded base answers defaultLoss and reciprocal and
// whose own gradStep is the one method it writes for training. The gradient
// surface is deliberately minimal: gradStep applies one Adagrad update for a
// single triple given dLoss/dScore.
type Trainable interface {
	Model
	defaultLoss() Loss
	// reciprocal reports whether the model handles head queries through
	// inverse relations (ids r+|R|), in which case the trainer corrupts
	// tails only but presents both triple directions.
	reciprocal() bool
	// gradStep applies dLoss/dScore = coeff for the triple (h, r, t),
	// updating parameters in place with Adagrad at learning rate lr.
	gradStep(h, r, t int32, coeff, lr float64)
}

// table is a dense embedding table with one of two optimizers. A per-row
// embedding table (newTable) steps with Adagrad, right for rows that a step
// touches only now and then. A shared dense parameter (newSharedTable:
// ConvE's kernels and FC, TuckER's core) receives a gradient on every step
// and steps with plain SGD, with weight decay and a clipped gradient.
type table struct {
	dim    int
	shared bool // SGD with the shared* constants; otherwise Adagrad
	w      []float64
	g2     []float64 // Adagrad's accumulators, allocated by the first update: a model that is only loaded and scored never pays for them
}

func newTable(rng *rand.Rand, n, dim int, scale float64) *table {
	t := &table{
		dim: dim,
		w:   make([]float64, n*dim),
	}
	for i := range t.w {
		t.w[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// The shared tables' SGD: the trainer's learning rate times sharedLRScale,
// weight decay sharedL2 added to the gradient, each coordinate clipped to
// ±sharedClip.
const (
	sharedLRScale = 0.1
	sharedL2      = 1e-4
	sharedClip    = 1
)

// newSharedTable returns a table tuned for dense, every-step parameters.
// These use plain SGD: adaptive methods renormalize even the vanishing
// gradients of a saturated loss back to full-size steps, so any persistent
// gradient direction makes shared dense weights drift without bound. Plain
// SGD steps shrink with the loss and stay stable.
func newSharedTable(rng *rand.Rand, n, dim int, scale float64) *table {
	t := newTable(rng, n, dim, scale)
	t.shared = true
	return t
}

// vec returns the embedding row of index i (aliases internal storage).
func (t *table) vec(i int32) []float64 {
	off := int(i) * t.dim
	return t.w[off : off+t.dim]
}

// update applies one optimizer step to row i. A zero coordinate of the
// gradient (after weight decay) leaves its weight and accumulator as they
// are.
func (t *table) update(i int32, grad []float64, lr float64) {
	const eps = 1e-8
	w := t.vec(i)
	if t.shared {
		lr *= sharedLRScale
		for j, g := range grad {
			g += sharedL2 * w[j]
			if g == 0 {
				continue
			}
			if g > sharedClip {
				g = sharedClip
			} else if g < -sharedClip {
				g = -sharedClip
			}
			w[j] -= lr * g
		}
		return
	}
	if t.g2 == nil {
		t.g2 = make([]float64, len(t.w))
	}
	g2 := t.g2[int(i)*t.dim:][:t.dim]
	for j, g := range grad {
		if g == 0 {
			continue
		}
		// Adagrad: w -= lr·g/√(G+ε), G the accumulated squared gradients.
		g2[j] += g * g
		w[j] -= lr * g / math.Sqrt(g2[j]+eps)
	}
}

func sigmoid(x float64) float64 {
	// Numerically stable in both tails.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// New constructs a model by name with default hyperparameters. Supported
// names: TransE, DistMult, ComplEx, RESCAL, RotatE, TuckER, ConvE. A dim
// below 1 is an error.
func New(name string, g *kg.Graph, dim int, seed int64) (Trainable, error) {
	if dim < 1 {
		return nil, fmt.Errorf("kgc: %s dim %d, want at least 1", name, dim)
	}
	switch name {
	case "TransE":
		return NewTransE(g, dim, seed), nil
	case "DistMult":
		return NewDistMult(g, dim, seed), nil
	case "ComplEx":
		return NewComplEx(g, dim, seed), nil
	case "RESCAL":
		return NewRESCAL(g, dim, seed), nil
	case "RotatE":
		return NewRotatE(g, dim, seed), nil
	case "TuckER":
		return NewTuckER(g, dim, seed), nil
	case "ConvE":
		return NewConvE(g, dim, seed), nil
	}
	return nil, fmt.Errorf("kgc: unknown model %q", name)
}

// ModelNames lists the models New accepts, in the paper's order.
func ModelNames() []string {
	return []string{"TransE", "ComplEx", "DistMult", "ConvE", "TuckER", "RESCAL", "RotatE"}
}
