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

// convWeights is the conv layer as the conv loops read it, with the channel
// as the minor index: each of the nine kernel taps in (ky, kx) order, then
// the channels' biases, and their batch norm's running mean and
// 1/√(var+ε). convAVX2 reads one row of four channels as one vector.
type convWeights struct {
	taps            [9][convChannels]float64
	bias, mean, inv [convChannels]float64
}

// loadConv lays the conv layer's current weights and statistics out in w.
func (m *ConvE) loadConv(w *convWeights) {
	for c := range convChannels {
		for t, k := range m.kern.vec(int32(c)) {
			w.taps[t][c] = k
		}
		w.bias[c] = m.kernB.vec(0)[c]
		w.mean[c] = m.bnConvMean[c]
		w.inv[c] = 1 / math.Sqrt(m.bnConvVar[c]+bnEps)
	}
}

// convFeatures computes the post-BN/ReLU flattened conv features of (h, r)
// into feat, with the conv layer w (loadConv), through conv: convGo or its
// AVX2 twin, the same bits either way. img is scratch for the stacked input
// image; convPre, when non-nil, receives the pre-BN conv output for
// backprop.
func (m *ConvE) convFeatures(w *convWeights, h, r int32, img, convPre, feat []float64) {
	copy(img[:m.dim], m.ent.vec(h))
	copy(img[m.dim:], m.rel.vec(r))
	conv(w, img, convPre, feat)
}

// conv is the conv layer under convFeatures: convGo, or — installed with
// rowAcc, on both vector lanes — its AVX2 twin (conv_amd64.s), which gives
// every feature and pre-BN sum the same bits.
var conv convFunc = convGo

// convFunc is the signature convGo and its vector twin share.
type convFunc func(w *convWeights, img, convPre, feat []float64)

// convGo defines the conv layer: the 3×3 convolution of the
// (len(img)/convDW)×convDW image with each channel's kernel, taps past the
// border skipped, then the channel's batch norm, (s − mean)·inv, and a ReLU
// that writes +0 for a norm that is not above zero (−0 and NaN included).
// feat and convPre hold the channels one after another, each row-major.
//
// The convChannels = 4 channels are convolved together: each output pixel
// reads its input pixels once and keeps four independent sums in flight,
// where one channel alone is a chain of up to nine dependent adds. Each sum
// starts from its channel's bias and adds its terms in (ky, kx) order, a
// rounded multiply then a rounded add each.
func convGo(w *convWeights, img, convPre, feat []float64) {
	ih, iw := len(img)/convDW, convDW
	for y := 0; y < ih; y++ {
		for x := 0; x < iw; x++ {
			s0, s1, s2, s3 := w.bias[0], w.bias[1], w.bias[2], w.bias[3]
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
					k, v := &w.taps[(ky+1)*3+kx+1], img[yy*iw+xx]
					s0 += k[0] * v
					s1 += k[1] * v
					s2 += k[2] * v
					s3 += k[3] * v
				}
			}
			for c, s := range [convChannels]float64{s0, s1, s2, s3} {
				idx := (c*ih+y)*iw + x
				if convPre != nil {
					convPre[idx] = s
				}
				norm := (s - w.mean[c]) * w.inv[c]
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
// a unit the ReLU zeroed adds nothing), then the output batch norm, which
// divides by dev, each coordinate's √(var+ε) (fcDeviations).
func (m *ConvE) project(feat, dev, out []float64) {
	copy(out, m.fcB.vec(0))
	rowAcc(out, feat, m.fc.vec(0), m.dim, true)
	for j := range out {
		out[j] = (out[j] - m.bnFCMean[j]) / dev[j]
	}
}

// fcDeviations writes each output coordinate's √(var+ε), the divisor of
// the output batch norm, into dev and returns it.
func (m *ConvE) fcDeviations(dev []float64) []float64 {
	for j := range dev {
		dev[j] = math.Sqrt(m.bnFCVar[j] + bnEps)
	}
	return dev
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
	w := new(convWeights)
	m.loadConv(w)
	m.convFeatures(w, h, r, img, convPre, feat)
	out := make([]float64, m.dim)
	m.project(feat, m.fcDeviations(make([]float64, m.dim)), out)
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
// The conv layer's layout and the output batch norm's divisors are the same
// for every query, so they are laid out once per call.
func (m *ConvE) buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch) {
	ih, iw := 2*m.dh, convDW
	sc.img = Grow(sc.img, ih*iw)
	sc.feat = Grow(sc.feat, convChannels*ih*iw)
	sc.fcDev = m.fcDeviations(Grow(sc.fcDev, m.dim))
	m.loadConv(&sc.conv)
	for i, h := range hs {
		m.convFeatures(&sc.conv, h, r, sc.img, nil, sc.feat)
		m.project(sc.feat, sc.fcDev, qs[i*m.dim:(i+1)*m.dim])
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
