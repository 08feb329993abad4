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
// optimum (1, 1). The winner is always a train-observed member's score (or
// +Inf, the empty set), so optimalThreshold finds it without sorting every
// score: only the score ranges that hold a member and can still win.
//
// g is the graph s was fitted on: the train-observed members are the Bᵀ
// that Fit built from g's training split and kept beside the matrix, so
// nothing here builds them again. BuildStatic panics on a matrix Fit did
// not build, or on a graph of another shape.
//
// Columns are independent and are processed on par.Workers(2·|R|)
// goroutines; each writes only its own Sets[col] and Thresholds[col], so the
// result does not depend on the worker count. Every set is allocated once at
// its final size; the only other allocation on the fitted graph is one
// scratch buffer per worker, sized by the longest column and reused across
// the worker's columns.
func BuildStatic(s *ScoreMatrix, g *kg.Graph, opts StaticOpts) *CandidateSets {
	numCols := 2 * s.NumRelations
	cs := &CandidateSets{
		NumEntities:  s.NumEntities,
		NumRelations: s.NumRelations,
		Sets:         make([][]int32, numCols),
		Thresholds:   make([]float64, numCols),
	}
	seen := s.seen
	if seen == nil || g.NumEntities != s.NumEntities || g.NumRelations != s.NumRelations {
		panic(fmt.Sprintf("recommender: BuildStatic needs the graph the matrix was fitted on (%d entities, %d relations)",
			s.NumEntities, s.NumRelations))
	}
	longest := 0
	for col := 0; col < numCols; col++ {
		ids, _ := s.Column(col)
		longest = max(longest, len(ids))
	}
	// A worker's scratch holds the longest column's keys, its known
	// members' (at most as many), and as much again for the search to
	// partition and sort them into.
	perWorker := 4 * longest
	scratch := make([]uint64, par.Workers(numCols)*perWorker)
	par.Blocks(numCols, func(w, lo, hi int) {
		buf := scratch[w*perWorker : (w+1)*perWorker]
		for col := lo; col < hi; col++ {
			members, _ := seen.Row(col)
			ids, scores := s.Column(col)
			thr, kept, knownKept := optimalThreshold(col, ids, scores, members, s.NumEntities, buf)
			cs.Thresholds[col] = thr
			n := kept // the set: the kept entities, and the members not among them
			if opts.IncludeSeen {
				n += len(members) - knownKept
			} else {
				members = nil
			}
			if n > 0 {
				cs.Sets[col] = make([]int32, n)
				unionAbove(cs.Sets[col], ids, scores, thr, members)
			}
		}
	})
	return cs
}

// optimalThreshold picks, among the distinct score values of column col, the
// threshold minimizing √((1−CR)² + (1−RR)²), where CR is recall over the
// knownMembers and RR = 1 − |set|/|E|; of equally near thresholds it picks
// the highest, and +Inf (the empty set) unless one is strictly nearer than
// the empty set. It also returns how many of the column's entities score
// at least the threshold (kept), and how many of those are known members
// (knownKept). ids and knownMembers are both sorted ascending; a known
// member need not be in the column. buf is scratch of at least 4·len(ids)
// words.
//
// A threshold's distance needs how many entities and how many known members
// score at least that much; both follow from two plain score lists — the
// column's, and the known members' within it — as integer keys in score
// order (sortKey). A sweep over every distinct score, highest first,
// would sort both lists whole. It need not, because the answer is always a
// known member's score (or +Inf): lowering the threshold from one score to
// the next lower one that no known member has adds entities and no recall,
// so CR stays, RR cannot rise, and — every step of the distance being
// monotone in floating point too — the distance cannot fall. Such a
// threshold never beats the one above it (or, at the top, the empty set,
// whose distance it matches at best). search therefore sorts only the
// score ranges that hold a known member and can reach the best distance
// already known exactly.
func optimalThreshold(col int, ids []int32, scores []float64, knownMembers []int32, numEntities int, buf []uint64) (thr float64, kept, knownKept int) {
	if len(ids) == 0 {
		return math.Inf(1), 0, 0
	}
	// The keys, their range, and how many are +Inf's: the entities that the
	// empty set's threshold, +Inf, keeps all the same.
	n := len(ids)
	keys := buf[:n]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	infKey, infs := sortKey(math.Inf(1)), 0
	for i, s := range scores {
		if s != s {
			panic(fmt.Sprintf("recommender: NaN score in column %d", col))
		}
		k := sortKey(s)
		keys[i] = k
		lo, hi = min(lo, k), max(hi, k)
		if k == infKey {
			infs++
		}
	}
	// The known members' keys, by a merge of the two id lists.
	known, knownInfs, i := buf[n:n], 0, 0
	for _, id := range knownMembers {
		for i < n && ids[i] < id {
			i++
		}
		if i < n && ids[i] == id {
			known = append(known, keys[i])
			if keys[i] == infKey {
				knownInfs++
			}
		}
	}
	m := n + len(known)
	c := cut{numKnown: len(knownMembers), numEntities: numEntities, bestKey: emptySet}
	// Distance of the empty set: CR=0 (or 1 if nothing is known), RR=1.
	c.bestDist = 1.0
	if len(knownMembers) == 0 {
		c.bestDist = 0
	}
	c.bound = c.bestDist
	c.search(keys, buf[m:m+n], known, buf[m+n:2*m], lo, hi)
	if c.bestKey == emptySet {
		return math.Inf(1), infs, knownInfs
	}
	return keyScore(c.bestKey), c.kept, c.knownKept
}

// search cuts a column into 1<<pruneBits buckets; 2 048 measured slower.
const pruneBits = 8

// emptySet is cut's best key while the empty set is best. No score has it:
// sortKey(+Inf) is below it, and NaN has no key.
const emptySet = math.MaxUint64

// cut is one column's threshold search: the sweep's best distance so far,
// its threshold's key (emptySet at first) with what it keeps, and bound,
// the least distance any threshold is known to reach — the sweep's best,
// or a bucket's lowest key's, whichever is less.
type cut struct {
	numKnown, numEntities int
	bestDist, bound       float64
	bestKey               uint64
	kept, knownKept       int
}

// dist is the squared distance to (1, 1) of the threshold that keeps kept
// entities, knownKept of them known members. It is non-increasing in
// knownKept and non-decreasing in kept, in floating point as in the reals:
// every operation on the way is monotone.
func (c *cut) dist(kept, knownKept int) float64 {
	cr := 1.0
	if c.numKnown > 0 {
		cr = float64(knownKept) / float64(c.numKnown)
	}
	rr := 1 - float64(kept)/float64(c.numEntities)
	return (1-cr)*(1-cr) + (1-rr)*(1-rr)
}

// try offers the threshold with key thr; thresholds are offered highest
// first, so a later one wins only if strictly nearer.
func (c *cut) try(thr uint64, kept, knownKept int) {
	d := c.dist(kept, knownKept)
	if d < c.bestDist {
		c.bestDist, c.bestKey, c.kept, c.knownKept = d, thr, kept, knownKept
	}
	c.bound = min(c.bound, d)
}

// search offers every threshold of a column that can win, highest first.
// all holds the column's keys, lo and hi the least and greatest of them,
// and known the known members' keys among them, both unsorted; allTmp and
// knownTmp are scratch of the same lengths, and all four may be
// overwritten.
//
// A column without a known member holds no winner, and a column of one
// distinct key is one threshold. Any other is cut once into 1<<pruneBits
// buckets of equal key width: for each, the exact distance at its lowest
// key tightens bound, and a lower bound on the distance of any threshold
// inside it (all of its known members kept, and only one more entity) says
// whether it can reach bound. The keys of the buckets that hold a known
// member and can are moved to the scratch and sorted and swept in turn,
// highest first; every other key is dropped unsorted. On wikikg2-sim the
// buckets swept hold 5.7 k of L-WD's 1.44 M keys and 112 k of DBH-T's
// 1.30 M; cutting those buckets again, or sorting short columns whole
// instead, measured slower.
func (c *cut) search(all, allTmp, known, knownTmp []uint64, lo, hi uint64) {
	if len(known) == 0 {
		return
	}
	if lo == hi {
		c.try(lo, len(all), len(known))
		return
	}
	const buckets = 1 << pruneBits
	shift := max(bits.Len64(hi-lo)-pruneBits, 0)
	var nAll, nKnown [buckets]int32
	for _, k := range all {
		nAll[(k-lo)>>shift]++
	}
	for _, k := range known {
		nKnown[(k-lo)>>shift]++
	}
	keptAll, keptKnown := 0, 0
	for b := buckets - 1; b >= 0; b-- {
		if nAll[b] > 0 {
			keptAll, keptKnown = keptAll+int(nAll[b]), keptKnown+int(nKnown[b])
			c.bound = min(c.bound, c.dist(keptAll, keptKnown))
		}
	}
	var swept [buckets]bool
	keptAll, keptKnown = 0, 0
	for b := buckets - 1; b >= 0; b-- {
		swept[b] = nKnown[b] > 0 && c.dist(keptAll+1, keptKnown+int(nKnown[b])) <= c.bound
		keptAll, keptKnown = keptAll+int(nAll[b]), keptKnown+int(nKnown[b])
	}
	// Move the swept buckets' keys to the scratch, bucket after bucket,
	// ascending.
	var next [buckets]int32
	move := func(keys, dst []uint64, count *[buckets]int32) int {
		pos := int32(0)
		for b := range next {
			if swept[b] {
				next[b], pos = pos, pos+count[b]
			}
		}
		for _, k := range keys {
			if b := (k - lo) >> shift; swept[b] {
				dst[next[b]] = k
				next[b]++
			}
		}
		return int(pos)
	}
	endAll, endKnown := move(all, allTmp, &nAll), move(known, knownTmp, &nKnown)
	keptAll, keptKnown = 0, 0
	for b := buckets - 1; b >= 0; b-- {
		if swept[b] {
			a, k := endAll-int(nAll[b]), endKnown-int(nKnown[b])
			c.sweep(allTmp[a:endAll], all[a:endAll], knownTmp[k:endKnown], known[k:endKnown], keptAll, keptKnown)
			endAll, endKnown = a, k
		}
		keptAll, keptKnown = keptAll+int(nAll[b]), keptKnown+int(nKnown[b])
	}
}

// sweep sorts a key range and offers each of its distinct keys, highest
// first. all and known are as in search, with allTmp and knownTmp their
// scratch; aboveAll and aboveKnown count the keys above the range.
func (c *cut) sweep(all, allTmp, known, knownTmp []uint64, aboveAll, aboveKnown int) {
	all, known = sortKeys(all, allTmp), sortKeys(known, knownTmp)
	i, k := len(all)-1, len(known)-1
	for i >= 0 {
		thr := all[i]
		for i >= 0 && all[i] == thr {
			i--
		}
		for k >= 0 && known[k] >= thr {
			k--
		}
		c.try(thr, aboveAll+len(all)-1-i, aboveKnown+len(known)-1-k)
	}
}

// sortKey maps a score to an integer with the same order: a < b as float64
// exactly when sortKey(a) < sortKey(b), for negative, subnormal and infinite
// values, and -0 and +0 — equal as floats — share a key. Not defined on NaN.
func sortKey(s float64) uint64 {
	b := math.Float64bits(s + 0) // -0 + 0 is +0; any other s is itself
	// A negative score's bits all flip (larger magnitude sorts lower), a
	// positive one's sign bit only.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
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
