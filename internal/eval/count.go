package eval

import (
	"math"
	"sync"

	"kgeval/internal/kgc"
)

// Certified counts. A rank needs of each candidate's score s only whether
// s > t, s == t or s < t, t being the true triple's score. On the 512-bit
// lane the scorer's RankBlock writes approximations f of the scores, in
// float32 widened to float64 (an FMA dot product, an L1 distance from
// Σmax(q, c), RotatE's VRSQRT14PS root), within a kgc.Bound for each query,
// |s − f| ≤ a + r·|f| for every f that is a number, proved per kernel in
// tile_amd64.s and stated by kgc's certBound. The strip's count turns the
// Bound into a window [lo, hi] around t (edges):
//
//   - f > hi settles s > t. s ≥ f − a − r·|f|, which is f(1 − r) − a for
//     f ≥ 0 and f(1 + r) − a for f < 0. With hi = (t + a)/(1 − r) when
//     t + a ≥ 0, f > hi ≥ 0 gives f(1 − r) − a > t. With hi = (t + a)/(1 + r)
//     when t + a < 0, a negative f > hi gives f(1 + r) − a > t, and f ≥ 0
//     gives f(1 − r) − a ≥ −a > t.
//   - f < lo settles s < t, the mirror image: lo = (t − a)/(1 + r) when
//     t − a ≥ 0, else (t − a)/(1 − r).
//   - Everything else — f inside [lo, hi], or NaN — is rescored exactly
//     (BatchScorer.Rescore, the Go kernel's bits) and compared with t as
//     the exact count compares it.
//
// lo ≤ t ≤ hi, so an exact tie, s == t, always falls inside and is rescored:
// ties, and the filtered protocol's tie policy with them, stay exact. Each
// edge is computed with at most three roundings, each within u = 2⁻⁵³ of the
// result (or exact, for a result below 2⁻¹⁰²² that is a sum; within 2⁻¹⁰⁷⁵
// for a quotient there), and then widened by 2⁻⁴⁸·|edge| + 2⁻¹⁰⁷⁰, far more
// than those roundings, so rounding can only widen the window. A t that is
// NaN or infinite, or an edge that overflows, gives no window: the strip is
// rescored whole and counted exactly.
//
// uncount takes back what count added for the answer and each known positive
// by the same rule applied to the same stored f — above hi, below lo, or the
// same exact rescore — so the counters end where the exact scores put them,
// and every rank with them. The answer's own copies inside the window are
// the one exception, and the common case (its approximation lies within the
// bound of t): whatever count added for them uncount would take back, so
// neither rescores them, and count adds nothing for them.

// countGo is the strip's compare, and its definition: how many scores are
// strictly above t and how many equal it. t is a number; a NaN score is
// neither (both comparisons are false), which is what ranks it below every
// number.
func countGo(scores []float64, t float64) (better, ties int) {
	for _, s := range scores {
		if s > t {
			better++
		}
		if s == t {
			ties++
		}
	}
	return better, ties
}

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

// countScores and countOutside are the compares blockQuery.count runs:
// countGo and outsideGo, or — installed at init where internal/cpu finds
// AVX2 (count_amd64.go) — their AVX2 twins, which give the same counts.
var (
	countScores  = countGo
	countOutside = outsideGo
)

// window is what counting a strip of RankBlock's scores needs beyond the
// scores: their Bound, the edges it gives around t, and the exact rescore of
// block query i's candidates (the strip's cands) for whatever falls inside.
// rescored counts the candidates rescored.
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
func edges(t float64, b kgc.Bound) (lo, hi float64, ok bool) {
	if !(b.Rel < 0.5) {
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

// exact is the strip's j-th candidate's exact score.
func (w *window) exact(j int) float64 {
	w.rescored++
	w.bs.Rescore(w.i, w.cands[j:j+1], w.one[:])
	return w.one[0]
}

// inside reports whether the stored score s leaves its comparison with t
// to an exact rescore: it lies in the window, or is NaN. With w nil the
// strip's scores are exact, and none is.
func (w *window) inside(s float64) bool {
	return w != nil && !(s > w.hi) && !(s < w.lo)
}

// truthInside counts the answer's copies in the strip whose stored scores
// lie inside w.
func (q *blockQuery) truthInside(x *poolIndex, j0 int, scores []float64, w *window) int {
	n := 0
	i := x.first(q.truth)
	if i < 0 {
		return 0
	}
	for i = max(i, j0); i < j0+len(scores) && x.pool[i] == q.truth; i++ {
		if w.inside(scores[i-j0]) {
			n++
		}
	}
	return n
}

// count adds one strip to the counters — the scores of the pool's
// candidates x.pool[j0:j0+len(scores)]: how many that are neither the answer
// nor a known positive score strictly better than the true triple, and how
// many tie with it. It counts first and corrects after: every score is
// compared with no filtering in the loop (countScores, a vector compare
// where there is one), then the answer and the known positives up to the
// strip's last id are each looked up once in the pool's position index and
// what their copies inside the strip added is taken back. The pool may repeat
// an id; known must not (FilterIndex lists are sortedUnique), or an id would
// be taken back twice. An empty strip counts nothing.
//
// NaN sorts below every number and ties with NaN. A NaN candidate therefore
// needs nothing of the comparisons (both are false), but a NaN answer does:
// every number beats it, so it takes a loop of its own.
func (q *blockQuery) count(x *poolIndex, j0 int, scores []float64) {
	q.countWithin(x, j0, scores, nil)
}

// countWithin is count over a strip of RankBlock's scores, within w.b of the
// exact ones. The window's compare (countOutside) settles every score
// outside [w.lo, w.hi], and each one inside but the answer's own copies is
// rescored; with no window for t, the strip is rescored whole and counted as
// count counts it. A nil w or a zero Bound is count itself.
func (q *blockQuery) countWithin(x *poolIndex, j0 int, scores []float64, w *window) {
	if len(scores) == 0 {
		return
	}
	if w != nil && w.b == (kgc.Bound{}) {
		w = nil
	}
	if w != nil {
		var ok bool
		if w.lo, w.hi, ok = edges(q.score, w.b); !ok {
			w.bs.Rescore(w.i, w.cands, scores)
			w.rescored += int64(len(scores))
			w = nil
		}
	}
	better, ties := 0, 0
	switch {
	case w != nil:
		above, below := countOutside(scores, w.lo, w.hi)
		better = above
		inside := len(scores) - above - below - q.truthInside(x, j0, scores, w)
		for j := 0; inside > 0; j++ {
			if s := scores[j]; s > w.hi || s < w.lo || x.pool[j0+j] == q.truth {
				continue
			}
			inside--
			switch e := w.exact(j); {
			case e > q.score:
				better++
			case e == q.score:
				ties++
			}
		}
	case q.score != q.score:
		for _, s := range scores {
			if s == s {
				better++
			} else {
				ties++
			}
		}
	default:
		better, ties = countScores(scores, q.score)
	}
	q.better += better
	q.ties += ties

	last := x.pool[j0+len(scores)-1]
	q.uncount(x, j0, scores, q.truth, w)
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

// uncount takes back what the copies of id in the strip (the candidates
// x.pool[j0:j0+len(scores)]) added, each compared as count compared it. The
// index says where id's first copy sits; the copies are consecutive from
// there.
func (q *blockQuery) uncount(x *poolIndex, j0 int, scores []float64, id int32, w *window) {
	i := x.first(id)
	if i < 0 {
		return
	}
	nan, end := q.score != q.score, j0+len(scores)
	for i = max(i, j0); i < end && x.pool[i] == id; i++ {
		s := scores[i-j0]
		if w.inside(s) {
			if id == q.truth {
				continue // count added nothing for it
			}
			s = w.exact(i - j0)
		}
		switch {
		case s > q.score, nan && s == s:
			q.better--
		case s == q.score, nan:
			q.ties--
		}
	}
}

// poolIndex is where each id of a block's pool first sits: pos[id] is 1 plus
// the first index of id in pool, and 0 means id is not in it (as does an id
// at or past len(pos)). A worker fills it once per block (index), so that
// the answer and each known positive cost count one lookup a strip, and
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
