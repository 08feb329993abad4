package main

import (
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// oracleMRR is the filtered ranking protocol written the slow, obvious way,
// from nothing but the Model interface and the filter index: score every
// entity per query, skip the truth and the known positives, rank by
// 1 + better + ties/2. It shares no code with internal/eval, so agreement
// with core.FullEvaluate is evidence and not a tautology.
func oracleMRR(m kgc.Model, filter *kg.FilterIndex, queries []kg.Triple, numEntities int) float64 {
	all := make([]int32, numEntities)
	for i := range all {
		all[i] = int32(i)
	}
	scores := make([]float64, numEntities)
	sum := 0.0
	for _, q := range queries {
		m.ScoreTails(q.H, q.R, all, scores)
		sum += 1 / naiveRank(scores, m.ScoreTriple(q.H, q.R, q.T), q.T, filter.Tails(q.H, q.R))

		// The true head is scored through ScoreHeads, as eval does, so
		// reciprocal-relation models rank it on the path its rivals take.
		var truth [1]float64
		m.ScoreHeads(q.R, q.T, []int32{q.H}, truth[:])
		m.ScoreHeads(q.R, q.T, all, scores)
		sum += 1 / naiveRank(scores, truth[0], q.H, filter.Heads(q.R, q.T))
	}
	return sum / float64(2*len(queries))
}

func naiveRank(scores []float64, trueScore float64, truth int32, known []int32) float64 {
	skip := map[int32]bool{truth: true}
	for _, k := range known {
		skip[k] = true
	}
	better, ties := 0, 0
	for c, s := range scores {
		switch {
		case skip[int32(c)]:
		case s > trueScore:
			better++
		case s == trueScore:
			ties++
		}
	}
	return 1 + float64(better) + float64(ties)/2
}
