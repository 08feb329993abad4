// Package kgc implements the knowledge-graph-completion models the paper
// evaluates its framework on (§5.2): TransE, DistMult, ComplEx, RESCAL,
// RotatE, TuckER and ConvE, together with a negative-sampling trainer using
// per-parameter Adagrad — a pure-Go, CPU-only stand-in for the LibKGE /
// PyTorch models used in the original study.
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
// construction. ScoreTriple and the training gradient keep their closed
// forms.
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

// table is a dense embedding table with per-parameter adaptive-gradient
// accumulators. With decay == 0 updates are Adagrad (right for sparse,
// per-row embedding tables); with decay ∈ (0,1) they are RMSProp, which
// shared dense parameters (ConvE's kernels/FC, TuckER's core) need because
// they receive a gradient on *every* step and plain Adagrad's ever-growing
// accumulator would stall them.
type table struct {
	dim     int
	sgd     bool    // plain SGD (no adaptive normalization)
	decay   float64 // 0 = Adagrad; (0,1) = RMSProp second-moment decay
	l2      float64 // weight decay added to the gradient of touched rows
	clip    float64 // per-coordinate gradient clip (0 = off)
	lrScale float64 // multiplier on the trainer's learning rate (0 = 1)
	w       []float64
	g2      []float64 // allocated by the first adaptive update: a model that is only loaded and scored never pays for it
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

// newSharedTable returns a table tuned for dense, every-step parameters.
// These use plain SGD: adaptive methods renormalize even the vanishing
// gradients of a saturated loss back to full-size steps, so any persistent
// gradient direction makes shared dense weights drift without bound. Plain
// SGD steps shrink with the loss and stay stable.
func newSharedTable(rng *rand.Rand, n, dim int, scale float64) *table {
	t := newTable(rng, n, dim, scale)
	t.sgd = true
	t.l2 = 1e-4
	t.clip = 1
	t.lrScale = 0.1
	return t
}

// vec returns the embedding row of index i (aliases internal storage).
func (t *table) vec(i int32) []float64 {
	off := int(i) * t.dim
	return t.w[off : off+t.dim]
}

// update applies one adaptive step to row i: w -= lr·g/√(G+ε) with G the
// (possibly decayed) accumulated squared gradients.
func (t *table) update(i int32, grad []float64, lr float64) {
	const eps = 1e-8
	if t.lrScale > 0 {
		lr *= t.lrScale
	}
	if t.g2 == nil && !t.sgd {
		t.g2 = make([]float64, len(t.w))
	}
	off := int(i) * t.dim
	for j, g := range grad {
		if t.l2 > 0 {
			g += t.l2 * t.w[off+j]
		}
		if g == 0 {
			continue
		}
		if t.clip > 0 {
			if g > t.clip {
				g = t.clip
			} else if g < -t.clip {
				g = -t.clip
			}
		}
		if t.sgd {
			t.w[off+j] -= lr * g
			continue
		}
		if t.decay > 0 {
			t.g2[off+j] = t.decay*t.g2[off+j] + (1-t.decay)*g*g
		} else {
			t.g2[off+j] += g * g
		}
		t.w[off+j] -= lr * g / math.Sqrt(t.g2[off+j]+eps)
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
