package eval

import (
	"cmp"
	"math/rand"
	"slices"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// ClassificationResult holds threshold-free binary-classification metrics of
// a model's scores over positive triples versus sampled negatives. The paper
// (§7, and the CoDEx discussion it cites in §2) argues that classification
// against *random* negatives is a nearly solved task, while classification
// against *hard* (recommender-sampled) negatives is the meaningful one —
// ROCAUC with a Random provider is therefore expected to be much higher
// than with a Probabilistic/Static provider.
type ClassificationResult struct {
	ROCAUC float64
	AUCPR  float64
	// Positives and Negatives count the scored examples.
	Positives, Negatives int
}

// Classify scores the split's triples as positives and tail-corrupted
// triples (candidates drawn from the provider, excluding known positives) as
// negatives, returning ROC-AUC and AUC-PR.
func Classify(m kgc.Model, g *kg.Graph, split []kg.Triple, provider CandidateProvider, negPerPos int, filter *kg.FilterIndex, seed int64) ClassificationResult {
	if filter == nil {
		filter = kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	}
	pos, _, neg := CorruptTails(m, split, provider, max(1, negPerPos), filter, rand.New(rand.NewSource(seed)))
	return ClassificationResult{
		ROCAUC:    ROCAUC(pos, neg),
		AUCPR:     AUCPR(pos, neg),
		Positives: len(pos),
		Negatives: len(neg),
	}
}

// CorruptTails scores each split triple, then k tail corruptions of it. A
// relation's pool is drawn from provider with rng on the relation's first
// use; each corruption is a uniform pick from it with rng. A pick equal to
// the triple's tail, or, when known is non-nil, a known tail, is dropped.
// It returns the positives' scores in split order, and the kept corruptions
// and their scores in draw order.
func CorruptTails(m kgc.Model, split []kg.Triple, provider CandidateProvider, k int, known *kg.FilterIndex, rng *rand.Rand) (pos []float64, neg []kg.Triple, negScores []float64) {
	pools := map[int32][]int32{}
	var buf [1]float64
	for _, tr := range split {
		pos = append(pos, m.ScoreTriple(tr.H, tr.R, tr.T))
		pool, ok := pools[tr.R]
		if !ok {
			pool = append([]int32(nil), provider.Candidates(tr.R, true, rng)...)
			pools[tr.R] = pool
		}
		if len(pool) == 0 {
			continue
		}
		for range k {
			cand := pool[rng.Intn(len(pool))]
			if cand == tr.T || known != nil && known.IsKnownTail(tr.H, tr.R, cand) {
				continue
			}
			m.ScoreTails(tr.H, tr.R, []int32{cand}, buf[:])
			neg = append(neg, kg.Triple{H: tr.H, R: tr.R, T: cand})
			negScores = append(negScores, buf[0])
		}
	}
	return pos, neg, negScores
}

// ROCAUC computes the area under the ROC curve: the probability that a
// random positive scores above a random negative (ties count half), via the
// rank-sum formulation. A NaN score sorts below every number and ties with
// NaN, as in the ranking protocol.
func ROCAUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return 0
	}
	type scored struct {
		s   float64
		pos bool
	}
	all := make([]scored, 0, len(pos)+len(neg))
	for _, s := range pos {
		all = append(all, scored{s, true})
	}
	for _, s := range neg {
		all = append(all, scored{s, false})
	}
	slices.SortFunc(all, func(a, b scored) int { return cmp.Compare(a.s, b.s) })

	// Rank-sum with average ranks for ties.
	rankSumPos := 0.0
	i := 0
	for i < len(all) {
		j := i
		for j < len(all) && cmp.Compare(all[j].s, all[i].s) == 0 {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	nPos, nNeg := float64(len(pos)), float64(len(neg))
	u := rankSumPos - nPos*(nPos+1)/2
	return u / (nPos * nNeg)
}

// AUCPR computes the area under the precision-recall curve by sweeping the
// score threshold over the descending-sorted examples (step interpolation).
// NaN scores sort below every number and form one tie group, as in ROCAUC.
func AUCPR(pos, neg []float64) float64 {
	if len(pos) == 0 {
		return 0
	}
	type scored struct {
		s   float64
		pos bool
	}
	all := make([]scored, 0, len(pos)+len(neg))
	for _, s := range pos {
		all = append(all, scored{s, true})
	}
	for _, s := range neg {
		all = append(all, scored{s, false})
	}
	slices.SortFunc(all, func(a, b scored) int { return cmp.Compare(b.s, a.s) })

	var tp, fp int
	area := 0.0
	prevRecall := 0.0
	total := float64(len(pos))
	i := 0
	for i < len(all) {
		// Advance through a tie group at once so ties don't order-bias.
		j := i
		for j < len(all) && cmp.Compare(all[j].s, all[i].s) == 0 {
			if all[j].pos {
				tp++
			} else {
				fp++
			}
			j++
		}
		recall := float64(tp) / total
		precision := float64(tp) / float64(tp+fp)
		area += (recall - prevRecall) * precision
		prevRecall = recall
		i = j
	}
	return area
}
