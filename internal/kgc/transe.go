package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// TransE (Bordes et al. 2013) models a relation as a translation in
// embedding space: score(h, r, t) = −‖h + r − t‖₁.
type TransE struct {
	base
	rel *table
}

// NewTransE initializes a TransE model for the graph.
func NewTransE(g *kg.Graph, dim int, seed int64) *TransE {
	rng := rand.New(rand.NewSource(seed))
	scale := 6 / math.Sqrt(float64(dim))
	return &TransE{
		base: base{name: "TransE", dim: dim, kind: kindL1, loss: LossMargin,
			ent: newTable(rng, g.NumEntities, dim, scale)},
		rel: newTable(rng, g.NumRelations, dim, scale),
	}
}

// ScoreTriple returns −‖h + r − t‖₁.
func (m *TransE) ScoreTriple(h, r, t int32) float64 {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	s := 0.0
	for i := 0; i < m.dim; i++ {
		s += math.Abs(hv[i] + rv[i] - tv[i])
	}
	return -s
}

func (m *TransE) ScoreTails(h, r int32, c []int32, o []float64) { scoreQuery(m, h, r, true, c, o) }
func (m *TransE) ScoreHeads(r, t int32, c []int32, o []float64) { scoreQuery(m, t, r, false, c, o) }

// Universal batch-lane contract (see scoring.go), which ScoreTails and
// ScoreHeads run too: tail queries are h+r, head queries t−r (score =
// -||h - (t - r)||), scored by the L1 kernel.

func (m *TransE) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, h := range hs {
		hv := m.ent.vec(h)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := range q {
			q[k] = hv[k] + rv[k]
		}
	}
}

func (m *TransE) buildHeadQueries(ts []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, t := range ts {
		tv := m.ent.vec(t)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := range q {
			q[k] = tv[k] - rv[k]
		}
	}
}

// gradStep: d(−‖h+r−t‖₁)/dh_i = −sign(h_i+r_i−t_i), etc.
func (m *TransE) gradStep(h, r, t int32, coeff, lr float64) {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	gh := make([]float64, m.dim)
	gt := make([]float64, m.dim)
	for i := 0; i < m.dim; i++ {
		d := hv[i] + rv[i] - tv[i]
		sg := 0.0
		if d > 0 {
			sg = 1
		} else if d < 0 {
			sg = -1
		}
		// dScore/dh_i = -sg ; chain with coeff = dLoss/dScore.
		gh[i] = coeff * -sg
		gt[i] = coeff * sg
	}
	m.ent.update(h, gh, lr)
	m.rel.update(r, gh, lr) // dScore/dr == dScore/dh
	m.ent.update(t, gt, lr)
}
