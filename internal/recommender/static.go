package recommender

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// its final size; the only other allocations are the train-observed members
// (the transposed incidence matrix) and one sort buffer per worker, sized by
// the longest column and reused across the worker's columns.
func BuildStatic(s *ScoreMatrix, g *kg.Graph, opts StaticOpts) *CandidateSets {
	numCols := 2 * s.NumRelations
	cs := &CandidateSets{
		NumEntities:  s.NumEntities,
		NumRelations: s.NumRelations,
		Sets:         make([][]int32, numCols),
		Thresholds:   make([]float64, numCols),
	}
	seen := incidenceT(g, false)
	longest := 0
	for col := 0; col < numCols; col++ {
		ids, _ := s.Column(col)
		longest = max(longest, len(ids))
	}
	// A worker's sort buffer holds the longest column's keys, its known
	// members' (at most as many), and as much again for the sorts to work in.
	perWorker := 4 * longest
	scratch := make([]uint64, par.Workers(numCols)*perWorker)
	par.Blocks(numCols, func(w, lo, hi int) {
		buf := scratch[w*perWorker : (w+1)*perWorker]
		for col := lo; col < hi; col++ {
			members, _ := seen.Row(col)
			ids, scores := s.Column(col)
			thr := optimalThreshold(col, ids, scores, members, s.NumEntities, buf)
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

// optimalThreshold picks, among the distinct score values of column col, the
// threshold minimizing √((1−CR)² + (1−RR)²), where CR is recall over the
// knownMembers and RR = 1 − |set|/|E|. ids and knownMembers are both sorted
// ascending. buf is scratch of at least 4·len(ids) words.
//
// The sweep needs, per distinct score, how many entities and how many known
// members score at least that much. Both follow from two plain sorted score
// lists — the column's, and the known members' within it — so no per-entity
// record has to be sorted; and the lists are sorted as integer keys in score
// order (sortKey), by radix rather than by comparison.
func optimalThreshold(col int, ids []int32, scores []float64, knownMembers []int32, numEntities int, buf []uint64) float64 {
	if len(ids) == 0 {
		return math.Inf(1)
	}
	buf = buf[:0]
	for _, s := range scores {
		if s != s {
			panic(fmt.Sprintf("recommender: NaN score in column %d", col))
		}
		buf = append(buf, sortKey(s))
	}
	ki := 0
	for i, id := range ids {
		for ki < len(knownMembers) && knownMembers[ki] < id {
			ki++
		}
		if ki < len(knownMembers) && knownMembers[ki] == id {
			buf = append(buf, buf[i])
		}
	}
	n, m := len(ids), len(buf)
	all := sortKeys(buf[:n], buf[m:m+n])
	known := sortKeys(buf[n:m], buf[m+n:2*m])

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
			bestThr = keyScore(thr)
		}
	}
	return bestThr
}

// sortKey maps a score to an integer with the same order: a < b as float64
// exactly when sortKey(a) < sortKey(b), for negative, subnormal and infinite
// values, and -0 and +0 — equal as floats — share a key. Not defined on NaN.
func sortKey(s float64) uint64 {
	if s == 0 {
		s = 0 // -0 becomes +0
	}
	b := math.Float64bits(s)
	if b>>63 != 0 {
		return ^b // negative: larger magnitude sorts lower
	}
	return b | 1<<63
}

// keyScore inverts sortKey.
func keyScore(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// Below radixMin keys sortKeys leaves a list to slices.Sort: a radix pass
// costs its 1<<radixBits counters whatever the length.
const (
	radixMin  = 256
	radixBits = 11
)

// sortKeys sorts keys ascending and returns the sorted list, which is keys or
// tmp (scratch of the same length): an LSD radix sort over only the bit
// positions on which the keys differ — scores of one column share most of
// their exponent, and counts most of their mantissa.
func sortKeys(keys, tmp []uint64) []uint64 {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return keys
	}
	first, diff := keys[0], uint64(0)
	for _, k := range keys {
		diff |= k ^ first
	}
	for shift := bits.TrailingZeros64(diff); shift < bits.Len64(diff); shift += radixBits {
		const mask = 1<<radixBits - 1
		if diff>>shift&mask == 0 {
			continue
		}
		var next [1 << radixBits]int32 // where the next key with each digit goes
		for _, k := range keys {
			next[k>>shift&mask]++
		}
		pos := int32(0)
		for d, n := range next {
			next[d], pos = pos, pos+n
		}
		for _, k := range keys {
			d := k >> shift & mask
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
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
	_, found := slices.BinarySearch(cs.Sets[col], e)
	return found
}

// SetSize returns the size of column col's candidate set.
func (cs *CandidateSets) SetSize(col int) int { return len(cs.Sets[col]) }
