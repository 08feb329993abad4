package recommender

import (
	"math"
	"slices"
	"sort"

	"kgeval/internal/kg"
	"kgeval/internal/par"
)

// CandidateSets holds the discretized ("Static") per-column candidate sets:
// for every domain/range column, the narrow entity set obtained by
// thresholding the score matrix, optimized for the Candidate-Recall /
// Reduction-Rate trade-off (§4.1).
type CandidateSets struct {
	NumEntities  int
	NumRelations int
	Sets         [][]int32 // len 2·|R|, each sorted ascending
	Thresholds   []float64 // chosen per-column score threshold T_dr
}

// StaticOpts configures BuildStatic.
type StaticOpts struct {
	// IncludeSeen unions each set with the train-observed (PT) members, the
	// paper's "practical scenario where one naturally would do this".
	IncludeSeen bool
}

// DefaultStaticOpts matches the paper's setup.
func DefaultStaticOpts() StaticOpts { return StaticOpts{IncludeSeen: true} }

// BuildStatic discretizes a score matrix into candidate sets. For each
// column it sweeps thresholds over the column's distinct scores and keeps
// the one whose (CR, RR) point — recall over the train-observed members and
// fraction of entities filtered out — minimizes the l2 distance to the
// optimum (1, 1).
//
// Columns are independent and are processed on par.Workers(2·|R|)
// goroutines; each writes only its own Sets[col] and Thresholds[col], so the
// result does not depend on the worker count. Every set is allocated once at
// its final size; the only other allocation is one score buffer per worker,
// reused across its columns.
func BuildStatic(s *ScoreMatrix, g *kg.Graph, opts StaticOpts) *CandidateSets {
	numCols := 2 * s.NumRelations
	cs := &CandidateSets{
		NumEntities:  s.NumEntities,
		NumRelations: s.NumRelations,
		Sets:         make([][]int32, numCols),
		Thresholds:   make([]float64, numCols),
	}
	domains, ranges := kg.DomainsRanges(g.Train, g.NumRelations)
	scratch := make([][]float64, par.Workers(numCols))
	par.Blocks(numCols, func(w, lo, hi int) {
		for col := lo; col < hi; col++ {
			known := domains
			if col >= s.NumRelations {
				known = ranges
			}
			members := known[col%s.NumRelations]
			ids, scores := s.Column(col)
			var thr float64
			thr, scratch[w] = optimalThreshold(ids, scores, members, s.NumEntities, scratch[w])
			cs.Thresholds[col] = thr
			if !opts.IncludeSeen {
				members = nil
			}
			// Size the set with a counting merge, then fill it.
			if n := unionAbove(nil, ids, scores, thr, members); n > 0 {
				cs.Sets[col] = make([]int32, n)
				unionAbove(cs.Sets[col], ids, scores, thr, members)
			}
		}
	})
	return cs
}

// optimalThreshold picks, among the distinct score values of a column, the
// threshold minimizing √((1−CR)² + (1−RR)²), where CR is recall over the
// knownMembers and RR = 1 − |set|/|E|. ids and knownMembers are both sorted
// ascending. buf is scratch, returned (possibly grown) for reuse.
//
// The sweep needs, per distinct score, how many entities and how many known
// members score at least that much. Both follow from two plain sorted score
// lists — the column's, and the known members' within it — so no per-entity
// record has to be sorted.
func optimalThreshold(ids []int32, scores []float64, knownMembers []int32, numEntities int, buf []float64) (float64, []float64) {
	if len(ids) == 0 {
		return math.Inf(1), buf
	}
	buf = append(buf[:0], scores...)
	ki := 0
	for i, id := range ids {
		for ki < len(knownMembers) && knownMembers[ki] < id {
			ki++
		}
		if ki < len(knownMembers) && knownMembers[ki] == id {
			buf = append(buf, scores[i])
		}
	}
	all, known := buf[:len(ids)], buf[len(ids):]
	slices.Sort(all)
	slices.Sort(known)

	bestThr := math.Inf(1)
	// Distance of the empty set: CR=0 (or 1 if nothing is known), RR=1.
	bestDist := 1.0
	if len(knownMembers) == 0 {
		bestDist = 0
	}
	// Sweep thresholds from the highest score down.
	i, k := len(all)-1, len(known)-1
	for i >= 0 {
		thr := all[i]
		for i >= 0 && all[i] == thr {
			i--
		}
		for k >= 0 && known[k] >= thr {
			k--
		}
		kept, knownKept := len(all)-1-i, len(known)-1-k
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
	return bestThr, buf
}

// unionAbove merges {ids[i] : scores[i] ≥ thr} with members into dst and
// returns the union's size; a nil dst only counts. Both inputs are sorted
// ascending and duplicate-free, so the union is too.
func unionAbove(dst, ids []int32, scores []float64, thr float64, members []int32) int {
	n, mi := 0, 0
	put := func(id int32) {
		if dst != nil {
			dst[n] = id
		}
		n++
	}
	for i, id := range ids {
		if !(scores[i] >= thr) {
			continue
		}
		for ; mi < len(members) && members[mi] < id; mi++ {
			put(members[mi])
		}
		if mi < len(members) && members[mi] == id {
			mi++
		}
		put(id)
	}
	for ; mi < len(members); mi++ {
		put(members[mi])
	}
	return n
}

// Contains reports whether entity e is in column col's candidate set.
func (cs *CandidateSets) Contains(col int, e int32) bool {
	set := cs.Sets[col]
	i := sort.Search(len(set), func(i int) bool { return set[i] >= e })
	return i < len(set) && set[i] == e
}

// SetSize returns the size of column col's candidate set.
func (cs *CandidateSets) SetSize(col int) int { return len(cs.Sets[col]) }
