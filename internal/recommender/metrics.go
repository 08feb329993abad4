package recommender

import (
	"kgeval/internal/kg"
)

// CandidateQuality reports the paper's Table 5 metrics for a set of
// candidate sets against a test split.
type CandidateQuality struct {
	// CRTest is the Candidate Recall over all distinct (h,r)- and
	// (r,t)-pairs in the test split: the fraction whose entity is contained
	// in the corresponding domain/range candidate set.
	CRTest float64
	// CRUnseen is the recall restricted to pairs not observed in train or
	// valid — the regime where PT-style methods score zero by construction.
	CRUnseen float64
	// RR is the Reduction Rate: the query-weighted mean of
	// 1 − |set|/|E| over the test queries, i.e. how much of the entity set
	// the candidate generator lets the evaluator skip.
	RR float64
	// Pairs and UnseenPairs count the distinct test pairs evaluated.
	Pairs       int
	UnseenPairs int
}

// EvaluateCandidates measures CR (Test and Unseen) and RR of candidate sets
// on g.Test, treating train+valid as "seen" (the paper's protocol).
func EvaluateCandidates(cs *CandidateSets, g *kg.Graph) CandidateQuality {
	seen := kg.NewFilterIndex(g.Train, g.Valid)

	type pair struct {
		col int
		e   int32
	}
	pairs := map[pair]bool{}
	for _, t := range g.Test {
		pairs[pair{DomainCol(int(t.R), g.NumRelations), t.H}] = true
		pairs[pair{RangeCol(int(t.R), g.NumRelations), t.T}] = true
	}

	// Every sum is of integers, so no order of the map walk changes a bit:
	// RR, the mean of 1 − |set|/|E| over the pairs, is 1 − Σ|set|/(|E|·pairs).
	var hit, unseenHit, total, unseenTot, sizes int
	for p := range pairs {
		total++
		contained := cs.Contains(p.col, p.e)
		if contained {
			hit++
		}
		sizes += cs.SetSize(p.col)

		var wasSeen bool
		if p.col < g.NumRelations {
			// Domain pair: was e observed as a head of r in train/valid?
			wasSeen = len(seen.Tails(p.e, int32(p.col))) > 0
		} else {
			r := int32(p.col - g.NumRelations)
			wasSeen = len(seen.Heads(r, p.e)) > 0
		}
		if !wasSeen {
			unseenTot++
			if contained {
				unseenHit++
			}
		}
	}

	q := CandidateQuality{Pairs: total, UnseenPairs: unseenTot}
	if total > 0 {
		q.CRTest = float64(hit) / float64(total)
		q.RR = 1 - float64(sizes)/(float64(total)*float64(g.NumEntities))
	}
	if unseenTot > 0 {
		q.CRUnseen = float64(unseenHit) / float64(unseenTot)
	}
	return q
}

// FalseEasyNegatives finds triples in the given split whose head scores zero
// in the relation's domain column or whose tail scores zero in the range
// column — the paper's Table 2 "false easy negatives": true facts that
// zero-score mining would incorrectly rule out.
func FalseEasyNegatives(s *ScoreMatrix, split []kg.Triple) []kg.Triple {
	var out []kg.Triple
	for _, t := range split {
		if s.Score(t.H, DomainCol(int(t.R), s.NumRelations)) == 0 ||
			s.Score(t.T, RangeCol(int(t.R), s.NumRelations)) == 0 {
			out = append(out, t)
		}
	}
	return out
}
