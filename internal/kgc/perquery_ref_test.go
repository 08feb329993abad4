package kgc

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The per-query reference: each built-in model's ScoreTails and ScoreHeads
// as written by hand, computing its query inline and scoring every candidate
// with a plain loop over its table row. The models now score one query
// through scoreQuery — their batch builders and Go tile kernels — and
// TestPerQueryMatchesReference holds that path to these bodies bit for bit.

// refPerQuery is the reference pair every built-in model carries here.
type refPerQuery interface {
	refScoreTails(h, r int32, cands []int32, out []float64)
	refScoreHeads(r, t int32, cands []int32, out []float64)
}

func (m *TransE) refScoreTails(h, r int32, cands []int32, out []float64) {
	hv, rv := m.ent.vec(h), m.rel.vec(r)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = hv[i] + rv[i]
	}
	for c, cand := range cands {
		tv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < m.dim; i++ {
			s += math.Abs(q[i] - tv[i])
		}
		out[c] = -s
	}
}

func (m *TransE) refScoreHeads(r, t int32, cands []int32, out []float64) {
	rv, tv := m.rel.vec(r), m.ent.vec(t)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = tv[i] - rv[i] // score = -||h - (t - r)||
	}
	for c, cand := range cands {
		hv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < m.dim; i++ {
			s += math.Abs(hv[i] - q[i])
		}
		out[c] = -s
	}
}

func (m *DistMult) refScoreTails(h, r int32, cands []int32, out []float64) {
	hv, rv := m.ent.vec(h), m.rel.vec(r)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = hv[i] * rv[i]
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

func (m *DistMult) refScoreHeads(r, t int32, cands []int32, out []float64) {
	rv, tv := m.rel.vec(r), m.ent.vec(t)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = rv[i] * tv[i]
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

func (m *ComplEx) refScoreTails(h, r int32, cands []int32, out []float64) {
	q := make([]float64, m.dim)
	m.queryTail(m.ent.vec(h), m.rel.vec(r), q)
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// refScoreHeads: score = Σ q_re·h_re + q_im·h_im with q_re = r_re·t_re +
// r_im·t_im, q_im = r_re·t_im − r_im·t_re.
func (m *ComplEx) refScoreHeads(r, t int32, cands []int32, out []float64) {
	rv, tv := m.rel.vec(r), m.ent.vec(t)
	d := m.half
	q := make([]float64, m.dim)
	for i := 0; i < d; i++ {
		rr, ri := rv[i], rv[d+i]
		tr, ti := tv[i], tv[d+i]
		q[i] = rr*tr + ri*ti
		q[d+i] = rr*ti - ri*tr
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// refScoreTails precomputes q = hᵀW_r then dots with each candidate.
func (m *RESCAL) refScoreTails(h, r int32, cands []int32, out []float64) {
	hv := m.ent.vec(h)
	w := m.rel.vec(r)
	d := m.dim
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		hi := hv[i]
		row := w[i*d : i*d+d]
		for j := 0; j < d; j++ {
			q[j] += hi * row[j]
		}
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// refScoreHeads precomputes q = W_r·t then dots with each candidate.
func (m *RESCAL) refScoreHeads(r, t int32, cands []int32, out []float64) {
	tv := m.ent.vec(t)
	w := m.rel.vec(r)
	d := m.dim
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = dot(w[i*d:i*d+d], tv)
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// refScoreTails scores all candidate tails after rotating h once.
func (m *RotatE) refScoreTails(h, r int32, cands []int32, out []float64) {
	d := m.half
	qre := make([]float64, d)
	qim := make([]float64, d)
	m.rotated(m.ent.vec(h), m.rel.vec(r), 1, qre, qim)
	for c, cand := range cands {
		tv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < d; i++ {
			dre, dim := qre[i]-tv[i], qim[i]-tv[d+i]
			s += cmod(dre, dim)
		}
		out[c] = -s
	}
}

// refScoreHeads scores all candidate heads using the inverse rotation:
// |h∘r − t| = |h − t∘r⁻¹|.
func (m *RotatE) refScoreHeads(r, t int32, cands []int32, out []float64) {
	d := m.half
	qre := make([]float64, d)
	qim := make([]float64, d)
	m.rotated(m.ent.vec(t), m.rel.vec(r), -1, qre, qim)
	for c, cand := range cands {
		hv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < d; i++ {
			dre, dim := hv[i]-qre[i], hv[d+i]-qim[i]
			s += cmod(dre, dim)
		}
		out[c] = -s
	}
}

// refScoreTails contracts the core with (h, r) once, then dots per candidate.
func (m *TuckER) refScoreTails(h, r int32, cands []int32, out []float64) {
	q := make([]float64, m.dim)
	refTailQuery(m.ent.vec(h), m.refRelMat(r), q)
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// refScoreHeads contracts the core with (r, t) once, then dots per candidate.
func (m *TuckER) refScoreHeads(r, t int32, cands []int32, out []float64) {
	q := make([]float64, m.dim)
	refHeadQuery(m.ent.vec(t), m.refRelMat(r), q)
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// The TuckER and ConvE query builders as scalar Go loops — one output at a
// time, its terms in ascending order, each a multiply then an add, a zero
// coefficient skipped — copied from before the builders ran on the
// row-accumulate kernel, four head rows at a time and four conv channels at
// once. The reference holds the builders to this arithmetic, not to
// themselves.

// refRelMat returns M_r[i*d+k] = Σ_j r_j·W[i][j][k].
func (m *TuckER) refRelMat(r int32) []float64 {
	d := m.dim
	rv, mat := m.rel.vec(r), make([]float64, d*d)
	w := m.core.vec(0)
	for i := range mat {
		mat[i] = 0
	}
	for i := 0; i < d; i++ {
		out := mat[i*d : i*d+d]
		for j := 0; j < d; j++ {
			rj := rv[j]
			if rj == 0 {
				continue
			}
			row := w[(i*d+j)*d : (i*d+j)*d+d]
			for k := range out {
				out[k] += rj * row[k]
			}
		}
	}
	return mat
}

// refTailQuery computes q = hᵀM_r (q_k = Σ_i h_i·M_r[i][k]).
func refTailQuery(hv, mat, q []float64) {
	d := len(q)
	for k := range q {
		q[k] = 0
	}
	for i := 0; i < d; i++ {
		hi := hv[i]
		if hi == 0 {
			continue
		}
		row := mat[i*d : i*d+d]
		for k := range q {
			q[k] += hi * row[k]
		}
	}
}

// refHeadQuery computes q = M_r·t (q_i = Σ_k M_r[i][k]·t_k).
func refHeadQuery(tv, mat, q []float64) {
	d := len(q)
	for i := 0; i < d; i++ {
		q[i] = dot(mat[i*d:i*d+d], tv)
	}
}

// refConvFeatures computes the post-BN/ReLU flattened conv features of
// (h, r) into feat, one channel at a time.
func (m *ConvE) refConvFeatures(h, r int32, img, feat []float64) {
	ih, iw := 2*m.dh, convDW
	hv, rv := m.ent.vec(h), m.rel.vec(r)
	copy(img[:m.dim], hv)
	copy(img[m.dim:], rv)

	for c := 0; c < convChannels; c++ {
		k := m.kern.vec(int32(c))
		bias := m.kernB.vec(0)[c]
		inv := 1 / math.Sqrt(m.bnConvVar[c]+bnEps)
		mean := m.bnConvMean[c]
		for y := 0; y < ih; y++ {
			for x := 0; x < iw; x++ {
				s := bias
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
						s += k[(ky+1)*3+kx+1] * img[yy*iw+xx]
					}
				}
				idx := (c*ih+y)*iw + x
				norm := (s - mean) * inv
				if norm > 0 {
					feat[idx] = norm
				} else {
					feat[idx] = 0
				}
			}
		}
	}
}

// refForward computes f(h, r): the conv features, the FC sum over the
// active units in ascending order, and the output batch norm.
func (m *ConvE) refForward(h, r int32) []float64 {
	ih, iw := 2*m.dh, convDW
	img := make([]float64, ih*iw)
	flat := convChannels * ih * iw
	feat := make([]float64, flat)
	m.refConvFeatures(h, r, img, feat)

	out := make([]float64, m.dim)
	copy(out, m.fcB.vec(0))
	w := m.fc.vec(0)
	for u := 0; u < flat; u++ {
		fu := feat[u]
		if fu == 0 {
			continue
		}
		row := w[u*m.dim : u*m.dim+m.dim]
		for j := 0; j < m.dim; j++ {
			out[j] += fu * row[j]
		}
	}
	for j := 0; j < m.dim; j++ {
		out[j] = (out[j] - m.bnFCMean[j]) / math.Sqrt(m.bnFCVar[j]+bnEps)
	}
	return out
}

// refScoreTails computes f(h, r) once and dots it with every candidate.
func (m *ConvE) refScoreTails(h, r int32, cands []int32, out []float64) {
	f := m.refForward(h, r)
	for c, cand := range cands {
		out[c] = dot(f, m.ent.vec(cand)) + m.bias.vec(cand)[0]
	}
}

// refScoreHeads answers head queries through the reciprocal relation.
func (m *ConvE) refScoreHeads(r, t int32, cands []int32, out []float64) {
	m.refScoreTails(t, r+int32(m.nrel), cands, out)
}

// Every model's ScoreTails and ScoreHeads against the reference with == on
// the bits of every score: both directions, dims that fill whole groups of
// four and dims that do not (20, 28) or round up (ConvE), weights as
// initialized (ConvE's bias planted) and after an epoch of training, and
// candidate lists of every entity, of scattered ids with repeats, and none.
func TestPerQueryMatchesReference(t *testing.T) {
	g := trainGraph(t)
	rng := rand.New(rand.NewSource(31))
	all := make([]int32, g.NumEntities)
	for i := range all {
		all[i] = int32(i)
	}
	scattered := make([]int32, 61)
	for i := range scattered {
		scattered[i] = int32(rng.Intn(g.NumEntities))
	}
	copy(scattered[30:], scattered[:9]) // repeats
	pools := map[string][]int32{"all": all, "scattered": scattered, "empty": {}}
	ents := []int32{0, 7, 64, 99, int32(g.NumEntities - 1)}
	// One epoch over 16 triples moves every shared table (ConvE's FC and BN
	// statistics, TuckER's core) and the rows it touches, and stays quick at
	// dim 64, where a TuckER step is O(d³).
	trainG := *g
	trainG.Train = g.Train[:16]
	compared := 0
	for _, dim := range []int{8, 20, 28, 64} {
		for _, trained := range []bool{false, true} {
			for _, m := range laneModels(t, g, dim, 17) {
				if trained {
					cfg := DefaultTrainConfig()
					cfg.Epochs = 1
					Train(m.(Trainable), &trainG, cfg)
				}
				ref := m.(refPerQuery)
				for pname, cands := range pools {
					got, want := make([]float64, len(cands)), make([]float64, len(cands))
					for qi, e := range ents {
						r := int32(qi % g.NumRelations)
						for _, tails := range []bool{true, false} {
							if tails {
								m.ScoreTails(e, r, cands, got)
								ref.refScoreTails(e, r, cands, want)
							} else {
								m.ScoreHeads(r, e, cands, got)
								ref.refScoreHeads(r, e, cands, want)
							}
							for j := range want {
								if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
									t.Fatalf("%s dim=%d trained=%v %s tails=%v query (%d, %d) candidate %d: %v, reference %v",
										m.Name(), dim, trained, pname, tails, e, r, cands[j], got[j], want[j])
								}
							}
							compared += len(want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d scores compared by bits", compared)
}

// One model is shared by every job that loads it, so its three methods must
// be safe for concurrent use: eight goroutines scoring one model at once get
// the scores one goroutine gets alone, for every model.
func TestModelsScoreConcurrently(t *testing.T) {
	g := trainGraph(t)
	all := make([]int32, g.NumEntities)
	for i := range all {
		all[i] = int32(i)
	}
	triples := g.Train[:24]
	type scores struct{ triple, tails, heads []float64 }
	run := func(m Model) scores {
		s := scores{triple: make([]float64, len(triples))}
		for i, tr := range triples {
			s.triple[i] = m.ScoreTriple(tr.H, tr.R, tr.T)
			tails, heads := make([]float64, len(all)), make([]float64, len(all))
			m.ScoreTails(tr.H, tr.R, all, tails)
			m.ScoreHeads(tr.R, tr.T, all, heads)
			s.tails, s.heads = append(s.tails, tails...), append(s.heads, heads...)
		}
		return s
	}
	for _, m := range laneModels(t, g, 12, 5) {
		want := run(m)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := run(m)
				for name, pair := range map[string][2][]float64{
					"ScoreTriple": {got.triple, want.triple},
					"ScoreTails":  {got.tails, want.tails},
					"ScoreHeads":  {got.heads, want.heads},
				} {
					if !slices.EqualFunc(pair[0], pair[1], sameScore) {
						t.Errorf("%s: concurrent %s differs from the serial scores", m.Name(), name)
					}
				}
			}()
		}
		wg.Wait()
	}
}
