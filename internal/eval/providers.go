package eval

import (
	"math/rand"
	"slices"

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
	s := sample.Uniform(rng, p.NumEntities, p.N)
	slices.Sort(s)
	return s
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

// Candidates draws from the domain or range set of r.
func (p *StaticProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	col := recommender.DomainCol(int(r), p.Sets.NumRelations)
	if tail {
		col = recommender.RangeCol(int(r), p.Sets.NumRelations)
	}
	s := sample.UniformFromSet(rng, p.Sets.Sets[col], p.N)
	slices.Sort(s)
	return s
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

// Candidates draws a weighted sample from the relation's score column.
func (p *ProbabilisticProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	col := recommender.DomainCol(int(r), p.Scores.NumRelations)
	if tail {
		col = recommender.RangeCol(int(r), p.Scores.NumRelations)
	}
	ids, scores := p.Scores.Column(col)
	s := sample.Weighted(rng, ids, scores, p.N)
	slices.Sort(s)
	return s
}
