package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// RotatE (Sun et al. 2019) embeds entities in ℂ^d and relations as
// element-wise rotations (unit-modulus complex numbers parameterized by
// phases θ): score(h, r, t) = −Σᵢ |hᵢ·e^{iθᵢ} − tᵢ|, the negative L1 sum of
// complex moduli. Entity vectors are stored as [re..., im...]; relations
// store d/2 phases.
type RotatE struct {
	base // dim is the total real dimensionality (even); d/2 complex dims
	half int
	rel  *table // phases, one per complex dimension
}

// NewRotatE initializes a RotatE model; dim must be even.
func NewRotatE(g *kg.Graph, dim int, seed int64) *RotatE {
	if dim%2 != 0 {
		dim++
	}
	rng := rand.New(rand.NewSource(seed))
	return &RotatE{
		base: base{name: "RotatE", dim: dim, kind: kindRot, loss: LossMargin, viaBatch: true,
			ent: newTable(rng, g.NumEntities, dim, 0.5)},
		half: dim / 2,
		rel:  newTable(rng, g.NumRelations, dim/2, math.Pi),
	}
}

// rotated writes the complex rotation of h by sign·phases into (qre, qim):
// h∘r for sign = 1, the inverse rotation h∘r⁻¹ for sign = −1.
func (m *RotatE) rotated(hv, phases []float64, sign float64, qre, qim []float64) {
	d := m.half
	for i := 0; i < d; i++ {
		c, s := math.Cos(sign*phases[i]), math.Sin(sign*phases[i])
		hr, hi := hv[i], hv[d+i]
		qre[i] = hr*c - hi*s
		qim[i] = hr*s + hi*c
	}
}

// ScoreTriple returns −Σ |h∘r − t| (complex modulus per dimension): the
// rotated query scored against t by the tile kernel's one-candidate path.
func (m *RotatE) ScoreTriple(h, r, t int32) float64 {
	q := make([]float64, m.dim)
	m.rotated(m.ent.vec(h), m.rel.vec(r), 1, q[:m.half], q[m.half:])
	var s [1]float64
	scoreRotTile(q, m.ent.vec(t), m.dim, 0, 1, 1, s[:])
	return s[0]
}

func (m *RotatE) ScoreTails(h, r int32, c []int32, o []float64) { scoreQuery(m, h, r, true, c, o) }
func (m *RotatE) ScoreHeads(r, t int32, c []int32, o []float64) { scoreQuery(m, t, r, false, c, o) }

// Universal batch-lane contract (see scoring.go), which ScoreTails and
// ScoreHeads run too: tail queries rotate h by r's phases, head queries
// rotate t by the inverse phases (|h∘r − t| = |h − t∘r⁻¹|), scored by the
// complex-modulus kernel. viaBatch is on: ScoreTriple allocates the
// rotated query per call, while the block already holds it.

func (m *RotatE) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	phases := m.rel.vec(r)
	for i, h := range hs {
		q := qs[i*m.dim : (i+1)*m.dim]
		m.rotated(m.ent.vec(h), phases, 1, q[:m.half], q[m.half:])
	}
}

func (m *RotatE) buildHeadQueries(ts []int32, r int32, qs []float64, _ *scratch) {
	phases := m.rel.vec(r)
	for i, t := range ts {
		q := qs[i*m.dim : (i+1)*m.dim]
		m.rotated(m.ent.vec(t), phases, -1, q[:m.half], q[m.half:])
	}
}

func (m *RotatE) gradStep(h, r, t int32, coeff, lr float64) {
	d := m.half
	hv, tv := m.ent.vec(h), m.ent.vec(t)
	phases := m.rel.vec(r)
	gh := make([]float64, m.dim)
	gt := make([]float64, m.dim)
	gp := make([]float64, d)
	for i := 0; i < d; i++ {
		c, s := math.Cos(phases[i]), math.Sin(phases[i])
		hr, hi := hv[i], hv[d+i]
		qre := hr*c - hi*s
		qim := hr*s + hi*c
		dre, dim := qre-tv[i], qim-tv[d+i]
		mod := cmod(dre, dim)
		if mod < 1e-12 {
			continue
		}
		// dScore/d· = −d|δ|/d· ; chain with coeff.
		ure, uim := dre/mod, dim/mod // d|δ|/dqre, d|δ|/dqim
		// q depends on h and θ: dqre/dhr = c, dqre/dhi = −s, ...
		gh[i] += coeff * -(ure*c + uim*s)
		gh[d+i] += coeff * -(-ure*s + uim*c)
		gt[i] += coeff * ure
		gt[d+i] += coeff * uim
		// dqre/dθ = −hr·s − hi·c = −qim ; dqim/dθ = hr·c − hi·s = qre.
		gp[i] += coeff * -(ure*(-qim) + uim*qre)
	}
	m.ent.update(h, gh, lr)
	m.ent.update(t, gt, lr)
	m.rel.update(r, gp, lr)
}
