package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// TuckER (Balažević et al. 2019) scores triples through a shared core
// tensor: score(h, r, t) = W ×₁ h ×₂ r ×₃ t with W ∈ R^{d×d×d}. The core
// makes every gradient step O(d³), so experiments keep TuckER's d smaller
// than the diagonal models', as the original does (d_r ≪ d_e).
type TuckER struct {
	base
	rel  *table
	core *table // single row of d³ weights
}

// NewTuckER initializes a TuckER model.
func NewTuckER(g *kg.Graph, dim int, seed int64) *TuckER {
	rng := rand.New(rand.NewSource(seed))
	return &TuckER{
		base: base{name: "TuckER", dim: dim, kind: kindDot, loss: LossLogistic, viaBatch: true,
			ent: newTable(rng, g.NumEntities, dim, 1/math.Sqrt(float64(dim)))},
		rel:  newTable(rng, g.NumRelations, dim, 1/math.Sqrt(float64(dim))),
		core: newSharedTable(rng, 1, dim*dim*dim, 1/float64(dim)),
	}
}

// relMatInto computes M_r[i*d+k] = Σ_j r_j·W[i][j][k] — the core tensor
// contracted with the relation once. Every query of the relation then needs
// only an O(d²) product with M_r: tails use q = hᵀM_r, heads q = M_r·t.
// This factorization is what makes TuckER's batch lane pay the O(d³)
// contraction once per relation of a block instead of once per query.
func (m *TuckER) relMatInto(rv, mat []float64) {
	d := m.dim
	w := m.core.vec(0)
	for i := range mat {
		mat[i] = 0
	}
	for i := 0; i < d; i++ {
		rowAcc(mat[i*d:i*d+d], rv[:d], w[i*d*d:], d, true)
	}
}

// tailQuery computes q = hᵀM_r (q_k = Σ_i h_i·M_r[i][k]).
func tailQuery(hv, mat, q []float64) {
	for k := range q {
		q[k] = 0
	}
	rowAcc(q, hv[:len(q)], mat, len(q), true)
}

// relMat returns M_r from sc, contracting the core with r only when sc does
// not already hold this relation's: one contraction serves all of a
// relation's queries in a block (batch queries, true-triple scores and both
// directions). ScoreTriple hands it a scratch of its own.
func (m *TuckER) relMat(r int32, sc *scratch) []float64 {
	d := m.dim
	if sc.relMatOK && sc.relMatR == r && len(sc.relMat) == d*d {
		return sc.relMat
	}
	sc.relMat = Grow(sc.relMat, d*d)
	m.relMatInto(m.rel.vec(r), sc.relMat)
	sc.relMatR, sc.relMatOK = r, true
	return sc.relMat
}

// ScoreTriple returns W ×₁ h ×₂ r ×₃ t.
func (m *TuckER) ScoreTriple(h, r, t int32) float64 {
	var sc scratch
	q := make([]float64, m.dim)
	tailQuery(m.ent.vec(h), m.relMat(r, &sc), q)
	return dot(q, m.ent.vec(t))
}

func (m *TuckER) ScoreTails(h, r int32, c []int32, o []float64) { scoreQuery(m, h, r, true, c, o) }
func (m *TuckER) ScoreHeads(r, t int32, c []int32, o []float64) { scoreQuery(m, t, r, false, c, o) }

// Universal batch-lane contract (see scoring.go), which ScoreTails and
// ScoreHeads run too, contracting the core with r once per call.
// viaBatch is on: ScoreTriple recomputes the O(d³) core contraction per
// call, while the block's queries already hold it.

func (m *TuckER) buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch) {
	d := m.dim
	mat := m.relMat(r, sc)
	for i, h := range hs {
		tailQuery(m.ent.vec(h), mat, qs[i*d:(i+1)*d])
	}
}

func (m *TuckER) buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch) {
	d := m.dim
	mat := m.relMat(r, sc)
	for i, t := range ts {
		scoreDotTile(m.ent.vec(t), mat, d, 0, d, d, qs[i*d:(i+1)*d])
	}
}

func (m *TuckER) gradStep(h, r, t int32, coeff, lr float64) {
	d := m.dim
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	w := m.core.vec(0)
	gh := make([]float64, d)
	gr := make([]float64, d)
	gt := make([]float64, d)
	gw := make([]float64, d*d*d)
	for i := 0; i < d; i++ {
		hi := hv[i]
		for j := 0; j < d; j++ {
			rj := rv[j]
			hr := hi * rj
			off := (i*d + j) * d
			row := w[off : off+d]
			var rowDotT float64
			for k := 0; k < d; k++ {
				tk := tv[k]
				rowDotT += row[k] * tk
				gw[off+k] = coeff * hr * tk
				gt[k] += coeff * hr * row[k]
			}
			gh[i] += coeff * rj * rowDotT
			gr[j] += coeff * hi * rowDotT
		}
	}
	m.ent.update(h, gh, lr)
	m.rel.update(r, gr, lr)
	m.ent.update(t, gt, lr)
	m.core.update(0, gw, lr)
}
