package recommender

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

// NewPIESim returns a stand-in for PIE (Chao et al. 2022), the GCN-based
// self-supervised entity-typing model used in the paper as the "advanced
// neural" relation recommender, trained from seed. The original trains a GNN
// on GPU for hours; here we train a shallow denoising autoencoder over the
// same structural evidence:
//
//	input   — an entity's domain/range incidence and type memberships,
//	          with random feature dropout (denoising) so the model cannot
//	          shortcut through the identity map;
//	hidden  — one ReLU layer (the "embedding");
//	output  — per-column membership logits, trained with BCE against the
//	          observed incidence plus sampled negatives.
//
// This preserves PIE's role in the study: a *learned* recommender that can
// score unseen candidates and costs orders of magnitude more to fit than
// L-WD, yet yields similar candidate quality (the paper's Table 5 point).
// It uses entity types when the graph has them but does not need them.
func NewPIESim(seed int64) Recommender {
	return &method{name: "PIE", unseen: true, build: func(g *kg.Graph, bt *sparse.CSR) *sparse.CSR { return fitPIE(g, bt, seed) }}
}

// PIE's hyperparameters.
const (
	pieHidden  = 32   // hidden width
	pieEpochs  = 25   // training epochs over all entities
	pieLR      = 0.05 // SGD learning rate
	pieDropout = 0.3  // input feature dropout probability
	pieNegs    = 4    // sampled negative columns per entity per epoch
	pieCutoff  = 0.01 // minimum sigmoid score kept in the sparse output
)

// fitPIE trains the denoising autoencoder from seed and materializes its
// score matrix, column-major, given the binary Bᵀ.
func fitPIE(g *kg.Graph, bt *sparse.CSR, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	nr2 := 2 * g.NumRelations
	inDim := nr2 + g.NumTypes
	h := pieHidden

	b := bt.Transpose() // B: an entity's incidence columns are its row
	t := typeMatrix(g)

	// featIdx[featPtr[e]:featPtr[e+1]] are the input feature ids of entity e:
	// its incidence columns, then its types offset by nr2.
	featPtr := make([]int, g.NumEntities+1)
	featIdx := make([]int32, 0, b.NNZ()+t.NNZ())
	for e := 0; e < g.NumEntities; e++ {
		cols, _ := b.Row(e)
		featIdx = append(featIdx, cols...)
		if g.EntityTypes != nil {
			tcols, _ := t.Row(e)
			for _, c := range tcols {
				featIdx = append(featIdx, int32(nr2)+c)
			}
		}
		featPtr[e+1] = len(featIdx)
	}
	features := func(e int) []int32 { return featIdx[featPtr[e]:featPtr[e+1]] }

	// Parameters: w1[inDim][h], b1[h], w2[h][nr2], b2[nr2].
	w1 := make([]float64, inDim*h)
	w2 := make([]float64, h*nr2)
	b1 := make([]float64, h)
	b2 := make([]float64, nr2)
	scale1 := math.Sqrt(2 / float64(h))
	scale2 := math.Sqrt(2 / float64(h))
	for i := range w1 {
		w1[i] = rng.NormFloat64() * scale1
	}
	for i := range w2 {
		w2[i] = rng.NormFloat64() * scale2
	}

	hid := make([]float64, h)
	gradHid := make([]float64, h)
	var activeBuf []int32
	order := rng.Perm(g.NumEntities)
	for epoch := 0; epoch < pieEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, e := range order {
			feats := features(e)
			if len(feats) == 0 {
				continue
			}
			// Denoising dropout on input features.
			active := activeBuf[:0]
			for _, f := range feats {
				if rng.Float64() >= pieDropout {
					active = append(active, f)
				}
			}
			activeBuf = active[:0] // keep the grown buffer
			if len(active) == 0 {
				active = feats[:1]
			}
			// Forward: hidden = ReLU(Σ w1[f] + b1).
			copy(hid, b1)
			for _, f := range active {
				row := w1[int(f)*h : int(f)*h+h]
				for j := 0; j < h; j++ {
					hid[j] += row[j]
				}
			}
			for j := 0; j < h; j++ {
				if hid[j] < 0 {
					hid[j] = 0
				}
			}
			// Targets: observed membership columns positive, sampled negatives.
			pos, _ := b.Row(e)
			for j := range gradHid {
				gradHid[j] = 0
			}
			step := func(col int32, label float64) {
				wcol := int(col)
				logit := b2[wcol]
				for j := 0; j < h; j++ {
					logit += hid[j] * w2[j*nr2+wcol]
				}
				pred := 1 / (1 + math.Exp(-logit))
				gradOut := pred - label // dBCE/dlogit
				b2[wcol] -= pieLR * gradOut
				for j := 0; j < h; j++ {
					gradHid[j] += gradOut * w2[j*nr2+wcol]
					w2[j*nr2+wcol] -= pieLR * gradOut * hid[j]
				}
			}
			for _, c := range pos {
				step(c, 1)
			}
			for k := 0; k < pieNegs; k++ {
				c := int32(rng.Intn(nr2))
				if containsInt32(pos, c) {
					continue
				}
				step(c, 0)
			}
			// Backprop into w1 through ReLU.
			for j := 0; j < h; j++ {
				if hid[j] <= 0 {
					gradHid[j] = 0
				}
			}
			for _, f := range active {
				row := w1[int(f)*h : int(f)*h+h]
				for j := 0; j < h; j++ {
					row[j] -= pieLR * gradHid[j]
				}
			}
			for j := 0; j < h; j++ {
				b1[j] -= pieLR * gradHid[j]
			}
		}
	}

	// Materialize scores with the full (undropped) input, row by row and in
	// column order — which is CSR order, so X is written directly and handed
	// over transposed (a linear sweep, nothing next to the training above).
	// All of a row's logits advance together through the hidden units, which
	// reads w2 contiguously; each logit still adds its h products in the
	// order j = 0..h-1.
	x := &sparse.CSR{NumRows: g.NumEntities, NumCols: nr2, RowPtr: make([]int, g.NumEntities+1)}
	logits := make([]float64, nr2)
	for e := 0; e < g.NumEntities; e++ {
		copy(hid, b1)
		for _, f := range features(e) {
			row := w1[int(f)*h : int(f)*h+h]
			for j := 0; j < h; j++ {
				hid[j] += row[j]
			}
		}
		copy(logits, b2)
		for j := 0; j < h; j++ {
			hj := hid[j]
			if hj < 0 { // ReLU
				hj = 0
			}
			for c, w := range w2[j*nr2 : (j+1)*nr2] {
				logits[c] += hj * w
			}
		}
		for c, logit := range logits {
			score := 1 / (1 + math.Exp(-logit))
			if score >= pieCutoff {
				x.ColIdx = append(x.ColIdx, int32(c))
				x.Val = append(x.Val, score)
			}
		}
		x.RowPtr[e+1] = len(x.ColIdx)
	}
	return x.Transpose()
}

func containsInt32(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
