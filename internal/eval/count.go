package eval

import (
	"math"
	"sync"

	"kgeval/internal/kgc"
)

// Rank counts. A rank needs of each candidate's score s only whether
// s > t, s == t or s < t, t being the true triple's score. The scorer's
// RankBlock writes each query's scores f within a kgc.Bound of the exact
// ones, |s − f| ≤ a + r·|f| for every f that is a number: on the 512-bit
// lane approximations, in float32 widened to float64 (an FMA dot product, an
// L1 distance from Σmax(q, c), RotatE's VRSQRT14PS root), proved per kernel
// in tile_amd64.s and stated by kgc's certBound; everywhere else the exact
// scores, under the zero Bound. Every strip is counted one way: its Bound
// becomes a window [lo, hi] around t (edges), and
//
//   - f > hi settles s > t. s ≥ f − a − r·|f|, which is f(1 − r) − a for
//     f ≥ 0 and f(1 + r) − a for f < 0. With hi = (t + a)/(1 − r) when
//     t + a ≥ 0, f > hi ≥ 0 gives f(1 − r) − a > t. With hi = (t + a)/(1 + r)
//     when t + a < 0, a negative f > hi gives f(1 + r) − a > t, and f ≥ 0
//     gives f(1 − r) − a ≥ −a > t.
//   - f < lo settles s < t, the mirror image: lo = (t − a)/(1 + r) when
//     t − a ≥ 0, else (t − a)/(1 − r).
//   - Everything else — f inside [lo, hi], or NaN — is compared with t
//     exactly (tally): rescored (BatchScorer.Rescore, the Go kernel's bits),
//     or as stored under the zero Bound, whose scores are exact and whose
//     window is [t, t].
//
// lo ≤ t ≤ hi, so an exact tie, s == t, always falls inside and is compared
// exactly: ties, and the filtered protocol's tie policy with them, stay
// exact. Each edge of a non-zero Bound's window is computed with at most
// three roundings, each within u = 2⁻⁵³ of the result (or exact, for a
// result below 2⁻¹⁰²² that is a sum; within 2⁻¹⁰⁷⁵ for a quotient there),
// and then widened by 2⁻⁴⁸·|edge| + 2⁻¹⁰⁷⁰, far more than those roundings, so
// rounding can only widen the window. A t that is NaN or infinite, or an
// edge that overflows, gives no window, and neither does the infinite Abs
// of a query RankBlock could not bound: the strip is rescored whole and
// counted under the zero Bound. A NaN t's window, [NaN, NaN], holds every
// score, so each is compared on its own.
//
// uncount takes back what the count added for each known positive by the
// same rule applied to the same stored f — above hi, below lo, or the same
// exact compare — so the counters end where the exact scores put them, and
// every rank with them. The answer's own copies are never counted: those
// above the window are taken off the compare's count, and those inside it
// are passed over.

// outsideGo is the window's compare, and its definition: how many scores
// are strictly above hi and how many strictly below lo. A NaN is neither.
func outsideGo(scores []float64, lo, hi float64) (above, below int) {
	for _, s := range scores {
		if s > hi {
			above++
		}
		if s < lo {
			below++
		}
	}
	return above, below
}

// countOutside is the compare countWithin runs: outsideGo or — installed at
// init where internal/cpu finds AVX2 (count_amd64.go) — its AVX2 twin, which
// gives the same counts.
var countOutside = outsideGo

// window is what counting a strip of RankBlock's scores needs beyond the
// scores: their Bound (zero once countWithin has rescored the strip whole),
// the edges it gives around t, and the exact rescore of block query i's
// candidates (the strip's cands) for whatever falls inside. rescored counts
// the candidates rescored.
type window struct {
	b        kgc.Bound
	lo, hi   float64
	bs       kgc.BatchScorer
	i        int
	cands    []int32
	one      [1]float64
	rescored int64
}

// edges returns the window [lo, hi] around t for approximations within b of
// their scores (see the head of this file), and false when there is none.
// The zero Bound's window is [t, t], whatever t is.
func edges(t float64, b kgc.Bound) (lo, hi float64, ok bool) {
	switch {
	case b == (kgc.Bound{}):
		return t, t, true
	case !(b.Rel < 0.5):
		return 0, 0, false
	}
	if up := t + b.Abs; up >= 0 {
		hi = up / (1 - b.Rel)
	} else {
		hi = up / (1 + b.Rel)
	}
	if down := t - b.Abs; down >= 0 {
		lo = down / (1 + b.Rel)
	} else {
		lo = down / (1 - b.Rel)
	}
	hi += math.Abs(hi)*0x1p-48 + 0x1p-1070
	lo -= math.Abs(lo)*0x1p-48 + 0x1p-1070
	return lo, hi, !math.IsInf(hi-lo, 0) && hi-lo == hi-lo
}

// inside reports whether the stored score s leaves its comparison with t to
// the exact score (exact): it lies in the window, or is NaN.
func (w *window) inside(s float64) bool {
	return !(s > w.hi) && !(s < w.lo)
}

// exact is the exact score of the strip's j-th candidate, whose stored score
// is s: s itself under the zero Bound, else its rescore.
func (w *window) exact(j int, s float64) float64 {
	if w.b == (kgc.Bound{}) {
		return s
	}
	w.rescored++
	w.bs.Rescore(w.i, w.cands[j:j+1], w.one[:])
	return w.one[0]
}

// tally adds d to the counter a candidate of exact score s falls in: better
// when s ranks above the answer's score, ties when it ties with it. NaN
// sorts below every number and ties with NaN.
func (q *blockQuery) tally(s float64, d int) {
	switch nan := q.score != q.score; {
	case s > q.score, nan && s == s:
		q.better += d
	case s == q.score, nan:
		q.ties += d
	}
}

// countWithin adds one strip to the counters — RankBlock's scores, within
// w.b of the exact ones, of the pool's candidates x.pool[j0:j0+len(scores)]:
// how many that are neither the answer nor a known positive score strictly
// better than the true triple, and how many tie with it. It counts first and
// corrects after: the window's compare (countOutside, a vector compare where
// there is one) settles every score outside [w.lo, w.hi] with no filtering in
// the loop, each one inside but the answer's own copies is compared exactly,
// and then the known positives up to the strip's last id are each looked up
// once in the pool's position index and what their copies inside the strip
// added is taken back. The pool may repeat an id; known must not
// (FilterIndex lists are sortedUnique), or an id would be taken back twice.
// An empty strip counts nothing.
func (q *blockQuery) countWithin(x *poolIndex, j0 int, scores []float64, w *window) {
	if len(scores) == 0 {
		return
	}
	var ok bool
	if w.lo, w.hi, ok = edges(q.score, w.b); !ok {
		w.bs.Rescore(w.i, w.cands, scores)
		w.rescored += int64(len(scores))
		w.b = kgc.Bound{}
		w.lo, w.hi = q.score, q.score
	}
	above, below := countOutside(scores, w.lo, w.hi)
	truthAbove, truthInside := q.truthCopies(x, j0, scores, w)
	q.better += above - truthAbove
	for j, inside := 0, len(scores)-above-below-truthInside; inside > 0; j++ {
		if s := scores[j]; w.inside(s) && x.pool[j0+j] != q.truth {
			inside--
			q.tally(w.exact(j, s), 1)
		}
	}

	last := x.pool[j0+len(scores)-1]
	ki := 0
	for ; ki < len(q.known) && q.known[ki] <= last; ki++ {
		if k := q.known[ki]; k != q.truth {
			q.uncount(x, j0, scores, k, w)
		}
	}
	if ki > 0 && q.known[ki-1] == last {
		ki-- // a pool that repeats an id may repeat it across the strip's edge
	}
	q.known = q.known[ki:]
}

// truthCopies walks the answer's copies in the strip, after one lookup in
// the index: how many of their stored scores lie above w, which the compare
// counted, and how many inside it, which the exact compare passes over.
func (q *blockQuery) truthCopies(x *poolIndex, j0 int, scores []float64, w *window) (above, inside int) {
	i := x.first(q.truth)
	if i < 0 {
		return 0, 0
	}
	for i = max(i, j0); i < j0+len(scores) && x.pool[i] == q.truth; i++ {
		switch s := scores[i-j0]; {
		case s > w.hi:
			above++
		case w.inside(s):
			inside++
		}
	}
	return above, inside
}

// uncount takes back what the copies of id in the strip (the candidates
// x.pool[j0:j0+len(scores)]) added, each compared as countWithin compared
// it. The index says where id's first copy sits; the copies are consecutive
// from there.
func (q *blockQuery) uncount(x *poolIndex, j0 int, scores []float64, id int32, w *window) {
	i := x.first(id)
	if i < 0 {
		return
	}
	for i = max(i, j0); i < j0+len(scores) && x.pool[i] == id; i++ {
		s := scores[i-j0]
		if w.inside(s) {
			s = w.exact(i-j0, s)
		}
		q.tally(s, -1)
	}
}

// poolIndex is where each id of a block's pool first sits: pos[id] is 1 plus
// the first index of id in pool, and 0 means id is not in it (as does an id
// at or past len(pos)). A worker fills it once per block (index), so that
// the answer and each known positive cost countWithin one lookup a strip, and
// clears it when the block ends (clear): every entry is 0 between blocks,
// which is what index relies on. It is |E|·4 bytes, and is kept across
// blocks and passes in indexes.
type poolIndex struct {
	pool []int32
	pos  []int32
}

// indexes holds the evaluation workers' position indexes between passes,
// every entry 0.
var indexes = sync.Pool{New: func() any { return new(poolIndex) }}

// index fills the index with pool, which is sorted ascending, may repeat an
// id and holds entity ids below entities. An id outside [0, entities) is
// the bounds panic it would be in the scorer, before anything is allocated
// for it.
func (x *poolIndex) index(pool []int32, entities int) {
	x.pool, x.pos = pool, kgc.Grow(x.pos, entities) // all 0, past len too
	for j, id := range pool {
		if x.pos[id] == 0 {
			x.pos[id] = int32(j + 1)
		}
	}
}

// clear zeroes what index wrote.
func (x *poolIndex) clear() {
	for _, id := range x.pool {
		x.pos[id] = 0
	}
	x.pool = nil
}

// first is the index in pool of id's first copy, or -1 when pool has none.
func (x *poolIndex) first(id int32) int {
	if uint(id) >= uint(len(x.pos)) {
		return -1
	}
	return int(x.pos[id]) - 1
}
