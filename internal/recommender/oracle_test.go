package recommender

// The implementations this file holds are the ones the package shipped before
// its kernels were rebuilt for speed (counting and radix sorts, a parallel
// sparse product born column-major, column-parallel discretization):
// sort.Slice everywhere, a serial append-grown row-major Gustavson product, a
// map per column. They are kept verbatim, renamed with an "oracle" prefix, as
// the reference the fast path must match bit for bit; differential_test.go
// runs the comparison. The oracle fits return X row-major, as they always
// built it; the test transposes it, production never does.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

func oracleNewCSR(rows, cols int, entries []sparse.Entry) *sparse.CSR {
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of %dx%d bounds", e.Row, e.Col, rows, cols))
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	m := &sparse.CSR{
		NumRows: rows,
		NumCols: cols,
		RowPtr:  make([]int, rows+1),
	}
	m.ColIdx = make([]int32, 0, len(entries))
	m.Val = make([]float64, 0, len(entries))
	for i := 0; i < len(entries); {
		j := i
		sum := 0.0
		for j < len(entries) && entries[j].Row == entries[i].Row && entries[j].Col == entries[i].Col {
			sum += entries[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, entries[i].Col)
		m.Val = append(m.Val, sum)
		m.RowPtr[entries[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

func oracleNewBinaryCSR(rows, cols int, entries []sparse.Entry) *sparse.CSR {
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of %dx%d bounds", e.Row, e.Col, rows, cols))
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	m := &sparse.CSR{
		NumRows: rows,
		NumCols: cols,
		RowPtr:  make([]int, rows+1),
	}
	m.ColIdx = make([]int32, 0, len(entries))
	for i, e := range entries {
		if i > 0 && e.Row == entries[i-1].Row && e.Col == entries[i-1].Col {
			continue
		}
		m.ColIdx = append(m.ColIdx, e.Col)
		m.RowPtr[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

func oracleMul(a, b *sparse.CSR) *sparse.CSR {
	if a.NumCols != b.NumRows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols))
	}
	out := &sparse.CSR{
		NumRows: a.NumRows,
		NumCols: b.NumCols,
		RowPtr:  make([]int, a.NumRows+1),
	}
	acc := make([]float64, b.NumCols)
	mark := make([]int, b.NumCols)
	for i := range mark {
		mark[i] = -1
	}
	var touched []int32
	for r := 0; r < a.NumRows; r++ {
		touched = touched[:0]
		for ka := a.RowPtr[r]; ka < a.RowPtr[r+1]; ka++ {
			j := a.ColIdx[ka]
			av := oracleValueAt(a, ka)
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				c := b.ColIdx[kb]
				if mark[c] != r {
					mark[c] = r
					acc[c] = 0
					touched = append(touched, c)
				}
				acc[c] += av * oracleValueAt(b, kb)
			}
		}
		sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
		for _, c := range touched {
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, acc[c])
		}
		out.RowPtr[r+1] = len(out.ColIdx)
	}
	return out
}

func oracleValueAt(m *sparse.CSR, k int) float64 {
	if m.Val == nil {
		return 1
	}
	return m.Val[k]
}

func oracleGramT(a *sparse.CSR) *sparse.CSR { return oracleMul(a.Transpose(), a) }

func oracleIncidence(g *kg.Graph) *sparse.CSR {
	entries := make([]sparse.Entry, 0, 2*len(g.Train))
	for _, t := range g.Train {
		entries = append(entries,
			sparse.Entry{Row: t.H, Col: t.R},
			sparse.Entry{Row: t.T, Col: int32(g.NumRelations) + t.R},
		)
	}
	return oracleNewBinaryCSR(g.NumEntities, 2*g.NumRelations, entries)
}

func oracleTypeMatrix(g *kg.Graph) *sparse.CSR {
	var entries []sparse.Entry
	for e, ts := range g.EntityTypes {
		for _, t := range ts {
			entries = append(entries, sparse.Entry{Row: int32(e), Col: t})
		}
	}
	return oracleNewBinaryCSR(g.NumEntities, g.NumTypes, entries)
}

func oracleFitPT(g *kg.Graph) (*sparse.CSR, error) {
	return oracleIncidence(g), nil
}

func oracleFitDBH(g *kg.Graph) (*sparse.CSR, error) {
	entries := make([]sparse.Entry, 0, 2*len(g.Train))
	for _, t := range g.Train {
		entries = append(entries,
			sparse.Entry{Row: t.H, Col: t.R, Val: 1},
			sparse.Entry{Row: t.T, Col: int32(g.NumRelations) + t.R, Val: 1},
		)
	}
	return oracleNewCSR(g.NumEntities, 2*g.NumRelations, entries), nil
}

func oracleFitDBHT(g *kg.Graph) (*sparse.CSR, error) {
	if err := RequireTypes("DBH-T", g); err != nil {
		return nil, err
	}
	b := oracleIncidence(g)
	t := oracleTypeMatrix(g)
	// typeCounts[t][col] = #distinct entities of type t observed in col.
	typeCounts := oracleMul(t.Transpose(), b)
	return oracleMul(t, typeCounts), nil
}

func oracleFitOntoSim(g *kg.Graph) (*sparse.CSR, error) {
	if err := RequireTypes("OntoSim", g); err != nil {
		return nil, err
	}
	b := oracleIncidence(g)
	t := oracleTypeMatrix(g)
	x := oracleMul(t, oracleMul(t.Transpose(), b))
	// Binarize: any positive propagated count means membership.
	bin := make([]sparse.Entry, 0, x.NNZ())
	for r := 0; r < x.NumRows; r++ {
		cols, vals := x.Row(r)
		for i, c := range cols {
			if vals[i] > 0 {
				bin = append(bin, sparse.Entry{Row: int32(r), Col: c})
			}
		}
	}
	return oracleNewBinaryCSR(g.NumEntities, 2*g.NumRelations, bin), nil
}

func oracleFitLWD(g *kg.Graph) (*sparse.CSR, error) {
	b := oracleIncidence(g)
	w := sparse.RowNormalize(oracleGramT(b))
	return oracleMul(b, w), nil
}

func oracleFitLWDT(g *kg.Graph) (*sparse.CSR, error) {
	if err := RequireTypes("L-WD-T", g); err != nil {
		return nil, err
	}
	nr2 := 2 * g.NumRelations
	entries := make([]sparse.Entry, 0, 2*len(g.Train))
	for _, t := range g.Train {
		entries = append(entries,
			sparse.Entry{Row: t.H, Col: t.R},
			sparse.Entry{Row: t.T, Col: int32(g.NumRelations) + t.R},
		)
	}
	for e, ts := range g.EntityTypes {
		for _, t := range ts {
			entries = append(entries, sparse.Entry{Row: int32(e), Col: int32(nr2) + t})
		}
	}
	b := oracleNewBinaryCSR(g.NumEntities, nr2+g.NumTypes, entries)
	w := sparse.RowNormalize(oracleGramT(b))
	x := oracleMul(b, w)
	return oracleTruncateCols(x, nr2), nil
}

func oracleTruncateCols(m *sparse.CSR, cols int) *sparse.CSR {
	out := &sparse.CSR{
		NumRows: m.NumRows,
		NumCols: cols,
		RowPtr:  make([]int, m.NumRows+1),
	}
	for r := 0; r < m.NumRows; r++ {
		cs, vs := m.Row(r)
		for i, c := range cs {
			if int(c) < cols {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, vs[i])
			}
		}
		out.RowPtr[r+1] = len(out.ColIdx)
	}
	return out
}

func oracleFitPIE(seed int64, g *kg.Graph) (*sparse.CSR, error) {
	rng := rand.New(rand.NewSource(seed))
	nr2 := 2 * g.NumRelations
	inDim := nr2 + g.NumTypes
	h := pieHidden

	b := oracleIncidence(g)
	t := oracleTypeMatrix(g)

	// features returns the active input feature ids of entity e.
	features := func(e int) []int32 {
		cols, _ := b.Row(e)
		out := append([]int32(nil), cols...)
		if g.EntityTypes != nil {
			tcols, _ := t.Row(e)
			for _, c := range tcols {
				out = append(out, int32(nr2)+c)
			}
		}
		return out
	}

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
	order := rng.Perm(g.NumEntities)
	for epoch := 0; epoch < pieEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, e := range order {
			feats := features(e)
			if len(feats) == 0 {
				continue
			}
			// Denoising dropout on input features.
			active := feats[:0:0]
			for _, f := range feats {
				if rng.Float64() >= pieDropout {
					active = append(active, f)
				}
			}
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

	// Materialize scores with the full (undropped) input.
	var entries []sparse.Entry
	for e := 0; e < g.NumEntities; e++ {
		feats := features(e)
		copy(hid, b1)
		for _, f := range feats {
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
		for c := 0; c < nr2; c++ {
			logit := b2[c]
			for j := 0; j < h; j++ {
				logit += hid[j] * w2[j*nr2+c]
			}
			score := 1 / (1 + math.Exp(-logit))
			if score >= pieCutoff {
				entries = append(entries, sparse.Entry{Row: int32(e), Col: int32(c), Val: score})
			}
		}
	}
	return oracleNewCSR(g.NumEntities, nr2, entries), nil
}

func oracleBuildStatic(s *ScoreMatrix, g *kg.Graph, opts StaticOpts) *CandidateSets {
	numCols := 2 * s.NumRelations
	cs := &CandidateSets{
		NumEntities:  s.NumEntities,
		NumRelations: s.NumRelations,
		Sets:         make([][]int32, numCols),
		Thresholds:   make([]float64, numCols),
	}
	domains, ranges := oracleDomainsRanges(g.Train, g.NumRelations)
	known := func(col int) []int32 {
		if col < s.NumRelations {
			return domains[col]
		}
		return ranges[col-s.NumRelations]
	}
	for col := 0; col < numCols; col++ {
		ids, scores := s.Column(col)
		thr := oracleOptimalThreshold(ids, scores, known(col), s.NumEntities)
		cs.Thresholds[col] = thr
		var set []int32
		for i, id := range ids {
			if scores[i] >= thr {
				set = append(set, id)
			}
		}
		if opts.IncludeSeen {
			set = append(set, known(col)...)
		}
		cs.Sets[col] = oracleDedupSorted(set)
	}
	return cs
}

func oracleOptimalThreshold(ids []int32, scores []float64, knownMembers []int32, numEntities int) float64 {
	if len(ids) == 0 {
		return math.Inf(1)
	}
	type cand struct {
		score float64
		known bool
	}
	knownSet := make(map[int32]bool, len(knownMembers))
	for _, m := range knownMembers {
		knownSet[m] = true
	}
	cands := make([]cand, len(ids))
	for i, id := range ids {
		cands[i] = cand{score: scores[i], known: knownSet[id]}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	bestThr := math.Inf(1)
	bestDist := math.Inf(1)
	// Distance of the empty set: CR=0 (or 1 if nothing is known), RR=1.
	{
		cr := 0.0
		if len(knownMembers) == 0 {
			cr = 1
		}
		bestDist = (1 - cr) * (1 - cr)
	}
	kept, knownKept := 0, 0
	for i := 0; i < len(cands); {
		// Extend through all candidates tied at this score.
		thr := cands[i].score
		for i < len(cands) && cands[i].score == thr {
			kept++
			if cands[i].known {
				knownKept++
			}
			i++
		}
		cr := 1.0
		if len(knownMembers) > 0 {
			cr = float64(knownKept) / float64(len(knownMembers))
		}
		rr := 1 - float64(kept)/float64(numEntities)
		dist := (1-cr)*(1-cr) + (1-rr)*(1-rr)
		if dist < bestDist {
			bestDist = dist
			bestThr = thr
		}
	}
	return bestThr
}

func oracleDedupSorted(xs []int32) []int32 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// oracleDomainsRanges is the train-observed domains and ranges as kg once
// extracted them: append-grown lists, sorted and deduplicated with sort.Slice.
// incidenceT's rows must equal them (TestIncidenceTMatchesOracle).
func oracleDomainsRanges(triples []kg.Triple, numRelations int) (domains, ranges [][]int32) {
	domains = make([][]int32, numRelations)
	ranges = make([][]int32, numRelations)
	for _, t := range triples {
		domains[t.R] = append(domains[t.R], t.H)
		ranges[t.R] = append(ranges[t.R], t.T)
	}
	for r := 0; r < numRelations; r++ {
		domains[r] = oracleDedupSorted(domains[r])
		ranges[r] = oracleDedupSorted(ranges[r])
	}
	return domains, ranges
}
