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

// PoolMemo remembers the pool sets that plans over one fitted core.Framework
// drew, so that the next plan that would draw the same ones — another model
// on the same ground — gets the very slices without drawing. A set is filed
// under everything its draw read: strategy, n_s, seed and the plan's ordered
// relation ids, all of them, because a pool's place in the plan's one rng
// stream depends on every draw before it. Filed sets are never written again;
// passes that hit one share it read-only. At most MaxBytes of pool ids are
// kept, least recently used sets going first; a larger plan is served but not
// kept. Safe for concurrent use; two plans that miss one key at once both
// draw (equal pools) and the first to finish files.
type PoolMemo struct {
	MaxBytes int

	mu   sync.Mutex
	used int
	sets []*poolSet // least recently used first
}

// poolKey is what a plan's draw reads besides its relations.
type poolKey struct {
	strategy string
	n        int
	seed     int64
}

type poolSet struct {
	poolKey
	groups []relGroup // relation and pools only, in plan order
	bytes  int
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

func (m *PoolMemo) find(key poolKey, groups []relGroup) int {
	return slices.IndexFunc(m.sets, func(s *poolSet) bool {
		return s.poolKey == key && slices.EqualFunc(s.groups, groups, func(a, b relGroup) bool { return a.r == b.r })
	})
}

// install gives groups the pools of the set filed under key for exactly
// their relations, and reports whether there was one.
func (m *PoolMemo) install(key poolKey, groups []relGroup) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.find(key, groups)
	if i < 0 {
		return false
	}
	s := m.sets[i]
	m.sets = append(slices.Delete(m.sets, i, i+1), s)
	for gi := range groups {
		groups[gi].tailPool, groups[gi].headPool = s.groups[gi].tailPool, s.groups[gi].headPool
	}
	return true
}

// file keeps the pools groups just drew under key.
func (m *PoolMemo) file(key poolKey, groups []relGroup) {
	s := &poolSet{poolKey: key, groups: make([]relGroup, len(groups))}
	for gi, g := range groups {
		s.groups[gi] = relGroup{r: g.r, tailPool: g.tailPool, headPool: g.headPool}
		s.bytes += 4 * (len(g.tailPool) + len(g.headPool))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.bytes > m.MaxBytes || m.find(key, groups) >= 0 {
		return // too large to keep, or a plan that missed alongside filed first
	}
	m.sets = append(m.sets, s)
	m.used += s.bytes
	for m.used > m.MaxBytes { // ends with s still in: s alone fits
		m.used -= m.sets[0].bytes
		m.sets = slices.Delete(m.sets, 0, 1)
	}
}
