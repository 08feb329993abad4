package eval

import (
	"math/rand"
	"slices"
	"sync"

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

// ProbabilisticWRProvider is the with-replacement ablation of the
// probabilistic strategy: n_s draws from a Walker alias table, duplicates
// collapsed. Cheaper per draw (O(1) vs O(log k)) but yields smaller
// effective pools when the score distribution is peaked — the benchmark
// suite compares both (DESIGN.md ablations).
type ProbabilisticWRProvider struct {
	Scores *recommender.ScoreMatrix
	N      int

	once    sync.Once       // guards the one-time build of aliases and ids
	aliases []*sample.Alias // per column; nil where no score is positive
	ids     [][]int32
}

// Name identifies the strategy.
func (*ProbabilisticWRProvider) Name() string { return "Probabilistic-WR" }

// buildAliases builds every column's alias table. It runs once per provider,
// on the first Candidates call, so concurrent first callers all see complete
// tables.
func (p *ProbabilisticWRProvider) buildAliases() {
	cols := 2 * p.Scores.NumRelations
	p.aliases = make([]*sample.Alias, cols)
	p.ids = make([][]int32, cols)
	for c := 0; c < cols; c++ {
		ids, scores := p.Scores.Column(c)
		p.ids[c] = ids
		p.aliases[c] = sample.NewAlias(scores)
	}
}

// Candidates draws n_s times with replacement and deduplicates.
func (p *ProbabilisticWRProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	p.once.Do(p.buildAliases)
	col := recommender.DomainCol(int(r), p.Scores.NumRelations)
	if tail {
		col = recommender.RangeCol(int(r), p.Scores.NumRelations)
	}
	a := p.aliases[col]
	if a == nil {
		return nil
	}
	out := make([]int32, p.N)
	for i := range out {
		out[i] = p.ids[col][a.Draw(rng)]
	}
	slices.Sort(out)
	return slices.Compact(out)
}
