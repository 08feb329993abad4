package eval

import (
	"math/rand"

	"kgeval/internal/lru"
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
// ids are ascending, so the sample is. newPlan draws the same pools in two
// halves: Scratch.Draw takes the uniforms in bulk from a sample.Stream over
// rng's seed, under the plan's lock, and Scratch.Select keys and selects
// outside it.
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

// PoolMemo remembers the pool sets that plans over one fitted core.Framework
// drew, so that the next plan that would draw the same ones — another model
// on the same ground — gets the very slices without drawing. A set is filed
// under everything its draw read: strategy, n_s, seed and the plan's ordered
// relation ids, all of them, because a pool's place in the plan's one rng
// stream depends on every draw before it. Filed sets are never written again;
// passes that hit one share it read-only. Safe for concurrent use: plans that
// miss one key at once draw once, the later ones joining the draw in flight.
type PoolMemo struct {
	sets *lru.Cache[poolKey, []relGroup] // relation and pools only, in plan order
}

// NewPoolMemo returns a memo that keeps at most capacity bytes of pool ids,
// least recently used sets going first. A set is charged 4 bytes for each of
// the n_s ids its 2·|R| pools can hold, which is what Random draws and at
// least what Static and Probabilistic do; a plan larger than the capacity is
// served but not kept.
func NewPoolMemo(capacity int) *PoolMemo {
	return &PoolMemo{lru.New[poolKey, []relGroup](int64(capacity))}
}

// poolKey is everything a plan's draw reads; rels is the plan's relation ids
// in order, four bytes each.
type poolKey struct {
	strategy string
	n        int
	seed     int64
	rels     string
}

// Remember returns provider, whose sample budget is n, as one whose plans
// newPlan looks up in the memo before drawing and files after. Candidates is
// provider's own: only whole plans are remembered.
func (m *PoolMemo) Remember(provider CandidateProvider, n int) CandidateProvider {
	return &memoProvider{provider, m, n}
}

type memoProvider struct {
	CandidateProvider
	memo *PoolMemo
	n    int
}
