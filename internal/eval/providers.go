package eval

import (
	"math/rand"

	"kgeval/internal/recommender"
	"kgeval/internal/sample"
)

// FullProvider returns every entity as a candidate — the standard full
// filtered ranking protocol.
type FullProvider struct {
	all []int32
}

// NewFullProvider builds the all-entities provider.
func NewFullProvider(numEntities int) *FullProvider {
	all := make([]int32, numEntities)
	for i := range all {
		all[i] = int32(i)
	}
	return &FullProvider{all: all}
}

// Name identifies the protocol.
func (*FullProvider) Name() string { return "Full" }

// Candidates returns all entities regardless of relation or direction.
func (p *FullProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	return p.all
}

// RandomProvider samples n_s entities uniformly at random from E per
// (relation, direction) — the baseline the paper shows to be overly
// optimistic, because almost all uniform candidates are easy negatives.
type RandomProvider struct {
	NumEntities int
	N           int
}

// Name identifies the strategy.
func (*RandomProvider) Name() string { return "Random" }

// Candidates draws a fresh uniform sample for the relation.
func (p *RandomProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	return sample.Uniform(rng, p.NumEntities, p.N)
}

// StaticProvider samples uniformly from a relation recommender's
// discretized candidate sets (§4.1 "Static"). When a set is smaller than
// n_s the whole set is used.
type StaticProvider struct {
	Sets *recommender.CandidateSets
	N    int
}

// Name identifies the strategy.
func (*StaticProvider) Name() string { return "Static" }

// Candidates draws from the domain or range set of r; the sets are sorted,
// so the sample is.
func (p *StaticProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	col := recommender.DomainCol(int(r), p.Sets.NumRelations)
	if tail {
		col = recommender.RangeCol(int(r), p.Sets.NumRelations)
	}
	return sample.UniformFromSet(rng, p.Sets.Sets[col], p.N)
}

// ProbabilisticProvider samples n_s entities without replacement with
// probability proportional to the recommender's scores (§4.1
// "Probabilistic"), concentrating the pool on credible hard negatives.
type ProbabilisticProvider struct {
	Scores *recommender.ScoreMatrix
	N      int
}

// Name identifies the strategy.
func (*ProbabilisticProvider) Name() string { return "Probabilistic" }

// Candidates draws a weighted sample from the relation's score column, whose
// ids are ascending, so the sample is. newPlan runs the same two halves that
// sample.Weighted composes, apart: Scratch.Draw under its rng lock and
// Scratch.Select outside it.
func (p *ProbabilisticProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	ids, scores := p.column(r, tail)
	return sample.Weighted(rng, ids, scores, p.N)
}

// column is the recommender's score column a (relation, direction) draws from.
func (p *ProbabilisticProvider) column(r int32, tail bool) (ids []int32, scores []float64) {
	col := recommender.DomainCol(int(r), p.Scores.NumRelations)
	if tail {
		col = recommender.RangeCol(int(r), p.Scores.NumRelations)
	}
	return p.Scores.Column(col)
}
