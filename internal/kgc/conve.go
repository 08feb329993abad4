package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// ConvE (Dettmers et al. 2018) reshapes head and relation embeddings into a
// stacked 2D "image", applies a 3×3 convolution with C channels, flattens,
// projects back to embedding space, and dots the result with the tail:
//
//	f(h, r) = BN(FC(vec(ReLU(BN(conv2d([h; r]))))))     s = f(h, r)·t + b_t
//
// The batch-normalization layers are essential — they make the conv/FC
// pathway scale-invariant, which is what lets ConvE train at all. Here BN
// uses running statistics updated online during training (one sample per
// step) and frozen at evaluation, the standard inference-mode approximation.
//
// Head queries use reciprocal relations (id r+|R|), the standard 1-N ConvE
// trick: score(?, r, t) = score over tails of (t, r⁻¹, ?). The trainer
// detects this via reciprocal() and corrupts tails only, in both directions.
type ConvE struct {
	base     // bias is b_t, the per-entity additive bias
	nrel int // original relation count; rel table has 2·nrel rows
	dh   int // embedding reshape: dh rows × convDW cols; image is 2dh × convDW

	rel   *table
	kern  *table // convChannels × 3×3 kernels (single input channel)
	kernB *table // per-channel bias
	fc    *table // (convChannels·2dh·convDW) × dim, stored row-major by input unit
	fcB   *table // dim biases

	// Running batch-norm statistics (momentum bnMomentum). bnConv* are per
	// channel over the conv output map; bnFC* are per output coordinate.
	bnConvMean, bnConvVar []float64
	bnFCMean, bnFCVar     []float64
}

// ConvE's fixed architecture, which the snapshot format (SnapshotBytes) reads
// too: the embedding's reshape width, the conv channel count, and the
// momentum of the running batch-norm statistics. bnMomentum is typed so that
// it is rounded to a float64 first and 1−bnMomentum is the float64
// difference; untyped, the compiler would fold the exact 0.01 instead and
// move the statistics' last bits.
const (
	convDW       = 4
	convChannels = 4

	bnMomentum float64 = 0.99
)

// NewConvE initializes a ConvE model. dim is rounded up to a multiple of
// convDW so the embedding reshapes into a (dim/convDW)×convDW grid.
func NewConvE(g *kg.Graph, dim int, seed int64) *ConvE {
	if dim%convDW != 0 {
		dim += convDW - dim%convDW
	}
	rng := rand.New(rand.NewSource(seed))
	m := &ConvE{
		base: base{name: "ConvE", dim: dim, kind: kindDot, loss: LossLogistic, recip: true, viaBatch: true},
		nrel: g.NumRelations,
		dh:   dim / convDW,
	}
	flat := convChannels * 2 * m.dh * convDW
	m.ent = newTable(rng, g.NumEntities, dim, 1/math.Sqrt(float64(dim)))
	m.bias = newTable(rng, g.NumEntities, 1, 0)
	m.rel = newTable(rng, 2*g.NumRelations, dim, 1/math.Sqrt(float64(dim)))
	m.kern = newSharedTable(rng, convChannels, 9, 1.0/3)
	m.kernB = newSharedTable(rng, 1, convChannels, 0)
	m.fc = newSharedTable(rng, 1, flat*dim, 1/math.Sqrt(float64(flat)))
	m.fcB = newSharedTable(rng, 1, dim, 0)
	m.bnConvMean = make([]float64, convChannels)
	m.bnConvVar = onesSlice(convChannels)
	m.bnFCMean = make([]float64, dim)
	m.bnFCVar = onesSlice(dim)
	return m
}

func onesSlice(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

const bnEps = 1e-5

// convFeatures computes the post-BN/ReLU flattened conv features of (h, r)
// into feat. img is scratch for the stacked input image; convPre, when
// non-nil, receives the pre-BN conv output for backprop.
//
// The convChannels = 4 channels are convolved together: each output pixel
// reads its input pixels once and keeps four independent sums in flight,
// where one channel alone is a chain of up to nine dependent adds. Each sum still starts from its channel's
// bias and adds its terms in (ky, kx) order, so every feature keeps its bits.
func (m *ConvE) convFeatures(h, r int32, img, convPre, feat []float64) {
	ih, iw := 2*m.dh, convDW
	copy(img[:m.dim], m.ent.vec(h))
	copy(img[m.dim:], m.rel.vec(r))

	k0, k1, k2, k3 := m.kern.vec(0), m.kern.vec(1), m.kern.vec(2), m.kern.vec(3)
	bias := m.kernB.vec(0)[:convChannels]
	var mean, inv [convChannels]float64
	for c := range mean {
		mean[c] = m.bnConvMean[c]
		inv[c] = 1 / math.Sqrt(m.bnConvVar[c]+bnEps)
	}
	for y := 0; y < ih; y++ {
		for x := 0; x < iw; x++ {
			s0, s1, s2, s3 := bias[0], bias[1], bias[2], bias[3]
			for ky := -1; ky <= 1; ky++ {
				yy := y + ky
				if yy < 0 || yy >= ih {
					continue
				}
				for kx := -1; kx <= 1; kx++ {
					xx := x + kx
					if xx < 0 || xx >= iw {
						continue
					}
					t, v := (ky+1)*3+kx+1, img[yy*iw+xx]
					s0 += k0[t] * v
					s1 += k1[t] * v
					s2 += k2[t] * v
					s3 += k3[t] * v
				}
			}
			for c, s := range [convChannels]float64{s0, s1, s2, s3} {
				idx := (c*ih+y)*iw + x
				if convPre != nil {
					convPre[idx] = s
				}
				norm := (s - mean[c]) * inv[c]
				if norm > 0 {
					feat[idx] = norm
				} else {
					feat[idx] = 0
				}
			}
		}
	}
}

// project writes BN(FC(feat)) into out: the FC bias plus, unit by unit in
// ascending order, each active unit's feature times its weight row (rowAcc;
// a unit the ReLU zeroed adds nothing), then the output batch norm.
func (m *ConvE) project(feat, out []float64) {
	copy(out, m.fcB.vec(0))
	rowAcc(out, feat, m.fc.vec(0), m.dim, true)
	for j := range out {
		out[j] = (out[j] - m.bnFCMean[j]) / math.Sqrt(m.bnFCVar[j]+bnEps)
	}
}

// forward computes f(h, r). When caches are non-nil they receive the
// intermediate activations needed for backprop: the stacked image, the
// pre-BN conv output, and the post-BN/ReLU flattened features.
func (m *ConvE) forward(h, r int32, img, convPre, feat []float64) []float64 {
	ih, iw := 2*m.dh, convDW
	if img == nil {
		img = make([]float64, ih*iw)
	}
	if feat == nil {
		feat = make([]float64, convChannels*ih*iw)
	}
	m.convFeatures(h, r, img, convPre, feat)
	out := make([]float64, m.dim)
	m.project(feat, out)
	return out
}

// updateStats folds one sample's activations into the running BN statistics.
func (m *ConvE) updateStats(convPre, fcPre []float64) {
	ih, iw := 2*m.dh, convDW
	area := float64(ih * iw)
	for c := 0; c < convChannels; c++ {
		mean, sq := 0.0, 0.0
		for i := 0; i < ih*iw; i++ {
			v := convPre[c*ih*iw+i]
			mean += v
			sq += v * v
		}
		mean /= area
		variance := sq/area - mean*mean
		if variance < 0 {
			variance = 0
		}
		m.bnConvMean[c] = bnMomentum*m.bnConvMean[c] + (1-bnMomentum)*mean
		m.bnConvVar[c] = bnMomentum*m.bnConvVar[c] + (1-bnMomentum)*variance
	}
	for j := 0; j < m.dim; j++ {
		v := fcPre[j]
		m.bnFCMean[j] = bnMomentum*m.bnFCMean[j] + (1-bnMomentum)*v
		d := v - m.bnFCMean[j]
		m.bnFCVar[j] = bnMomentum*m.bnFCVar[j] + (1-bnMomentum)*d*d
	}
}

// ScoreTriple returns f(h, r)·t + b_t.
func (m *ConvE) ScoreTriple(h, r, t int32) float64 {
	f := m.forward(h, r, nil, nil, nil)
	return dot(f, m.ent.vec(t)) + m.bias.vec(t)[0]
}

func (m *ConvE) ScoreTails(h, r int32, c []int32, o []float64) { scoreQuery(m, h, r, true, c, o) }
func (m *ConvE) ScoreHeads(r, t int32, c []int32, o []float64) { scoreQuery(m, t, r, false, c, o) }

// Universal batch-lane contract (see scoring.go), which ScoreTails and
// ScoreHeads run too. The query vector is f(h, r) itself, so candidate
// scoring is the dot kernel plus the per-entity bias; head queries go
// through the reciprocal relation. viaBatch is on: ScoreTriple allocates a
// fresh conv/FC stack per call, while the block already holds the query.

// buildTailQueries computes f(h_i, r) for each of a relation's queries in a
// block: forward's conv features and projection, on the scorer's scratch.
func (m *ConvE) buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch) {
	ih, iw := 2*m.dh, convDW
	sc.img = Grow(sc.img, ih*iw)
	sc.feat = Grow(sc.feat, convChannels*ih*iw)
	for i, h := range hs {
		m.convFeatures(h, r, sc.img, nil, sc.feat)
		m.project(sc.feat, qs[i*m.dim:(i+1)*m.dim])
	}
}

// buildHeadQueries answers head queries through the reciprocal relation:
// (?, r, t) is the tail query (t, r+|R|, ?).
func (m *ConvE) buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch) {
	m.buildTailQueries(ts, r+int32(m.nrel), qs, sc)
}

func (m *ConvE) gradStep(h, r, t int32, coeff, lr float64) {
	ih, iw := 2*m.dh, convDW
	flat := convChannels * ih * iw
	img := make([]float64, ih*iw)
	convPre := make([]float64, flat)
	feat := make([]float64, flat)
	f := m.forward(h, r, img, convPre, feat)
	tv := m.ent.vec(t)

	// Reconstruct the pre-BN FC output for the stats update.
	fcPre := make([]float64, m.dim)
	for j := 0; j < m.dim; j++ {
		fcPre[j] = f[j]*math.Sqrt(m.bnFCVar[j]+bnEps) + m.bnFCMean[j]
	}

	// dScore/dt = f ; dScore/db_t = 1.
	gt := make([]float64, m.dim)
	for j := range gt {
		gt[j] = coeff * f[j]
	}
	m.ent.update(t, gt, lr)
	m.bias.update(t, []float64{coeff}, lr)

	// Backprop through the output BN (stats treated as constants):
	// dScore/dfcPre_j = t_j / √(var+ε).
	gradOut := make([]float64, m.dim)
	for j := 0; j < m.dim; j++ {
		gradOut[j] = coeff * tv[j] / math.Sqrt(m.bnFCVar[j]+bnEps)
	}

	// Backprop through FC.
	gradFeat := make([]float64, flat)
	w := m.fc.vec(0)
	gw := make([]float64, flat*m.dim)
	for u := 0; u < flat; u++ {
		fu := feat[u]
		row := w[u*m.dim : u*m.dim+m.dim]
		gf := 0.0
		for j := 0; j < m.dim; j++ {
			gf += gradOut[j] * row[j]
			if fu != 0 {
				gw[u*m.dim+j] = gradOut[j] * fu
			}
		}
		gradFeat[u] = gf
	}
	m.fc.update(0, gw, lr)
	m.fcB.update(0, gradOut, lr)

	// Backprop through ReLU, conv BN and conv into kernels and the image.
	gradImg := make([]float64, ih*iw)
	gk := make([]float64, 9)
	gkb := make([]float64, convChannels)
	for c := 0; c < convChannels; c++ {
		k := m.kern.vec(int32(c))
		inv := 1 / math.Sqrt(m.bnConvVar[c]+bnEps)
		mean := m.bnConvMean[c]
		for i := range gk {
			gk[i] = 0
		}
		for y := 0; y < ih; y++ {
			for x := 0; x < iw; x++ {
				idx := (c*ih+y)*iw + x
				if (convPre[idx]-mean)*inv <= 0 {
					continue // ReLU inactive
				}
				g := gradFeat[idx] * inv // through BN scaling
				if g == 0 {
					continue
				}
				gkb[c] += g
				for ky := -1; ky <= 1; ky++ {
					yy := y + ky
					if yy < 0 || yy >= ih {
						continue
					}
					for kx := -1; kx <= 1; kx++ {
						xx := x + kx
						if xx < 0 || xx >= iw {
							continue
						}
						gk[(ky+1)*3+kx+1] += g * img[yy*iw+xx]
						gradImg[yy*iw+xx] += g * k[(ky+1)*3+kx+1]
					}
				}
			}
		}
		m.kern.update(int32(c), gk, lr)
	}
	m.kernB.update(0, gkb, lr)

	// Split image gradient back into h and r embeddings.
	m.ent.update(h, gradImg[:m.dim], lr)
	m.rel.update(r, gradImg[m.dim:], lr)

	m.updateStats(convPre, fcPre)
}
