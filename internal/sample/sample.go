// Package sample provides the deterministic sampling primitives used by the
// evaluation framework: uniform and weighted sampling without replacement.
//
// All functions take an explicit *rand.Rand so that every experiment in the
// repository is reproducible from a seed, and all return their ids in
// ascending order of index (ascending ids when the input ids or set are
// ascending), which is what the evaluation plan's pools have to be: nothing
// downstream sorts. The weighted draw also comes apart into the half that
// reads the generator and the half that does not (Scratch), so that a
// caller who must keep many draws on one stream can serialize only the
// first; that caller draws from a Stream, math/rand's own generator computed
// here, which hands out a draw's uniforms in bulk. The second half takes
// each uniform's log in AVX2 assembly where the CPU has it (draw_amd64.s),
// with math.Log's bits, and selects over the keys that can win.
package sample

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// Uniform draws k distinct integers from [0, n) uniformly at random using
// Floyd's algorithm (O(k) draws) and returns them ascending, read off the
// n-bit membership set the algorithm keeps anyway. If k >= n, all of [0, n)
// is returned. A call allocates the result plus n/8 bytes and nothing per
// draw. Serial: the draws are one sequence on the caller's rng, so the
// result depends on nothing else.
func Uniform(rng *rand.Rand, n, k int) []int32 {
	k = max(0, min(k, n))
	out := make([]int32, 0, k)
	if k == n {
		for i := range n {
			out = append(out, int32(i))
		}
	} else {
		chosen := make([]uint64, (n+63)/64)
		for j := n - k; j < n; j++ {
			t := rng.Intn(j + 1)
			if chosen[t/64]&(1<<(t%64)) != 0 {
				t = j
			}
			chosen[t/64] |= 1 << (t % 64)
		}
		for wi, w := range chosen {
			for ; w != 0; w &= w - 1 {
				out = append(out, int32(wi*64+bits.TrailingZeros64(w)))
			}
		}
	}
	// The result used to be shuffled here and sorted by its caller. The
	// shuffle's draws are still made, into a swap that does nothing, only so
	// that the rng is left where it always was and every later pool of a
	// plan stays the pool TestPlanPoolsGolden pins; it goes when ROADMAP
	// item 3 re-records those pools.
	rng.Shuffle(k, func(i, j int) {})
	return out
}

// UniformFromSet draws min(k, len(set)) distinct elements from set uniformly
// at random, in the order they have in set: ascending for a sorted set. The
// input slice is not modified.
func UniformFromSet(rng *rand.Rand, set []int32, k int) []int32 {
	out := Uniform(rng, len(set), k)
	for i, j := range out {
		out[i] = set[j]
	}
	return out
}

// Weighted draws up to k items without replacement with probability
// proportional to their weights, using the Efraimidis–Spirakis scheme: each
// item i gets key uᵢ^(1/wᵢ) for uᵢ ~ U(0,1) and the k largest keys win.
// Items with non-positive weight are never selected. ids[i] pairs with
// weights[i]; pass nil ids to mean ids[i] = i. The winners are returned in
// index order, so ascending when ids is.
//
// Runs in O(n): every key is computed, the k-th largest is found by a
// Floyd–Rivest select over the keys that can be among the k largest, and
// those of them that beat that threshold are emitted in index order. An
// item whose key equals the threshold is taken only while the pool is short
// of k, lowest index first; equal keys need identical draws or weights at
// the edge of the float range, so this decides nothing in practice, but it
// is the rule. This is what makes the Probabilistic sampling strategy cost
// only 2·|R| sampling passes per evaluation. A call allocates the result,
// min(k, #positive weights) ids, and nothing else: the keys live in pooled
// scratch. It reads one rng.Float64 per positive weight in index order, and
// another for each of those that came out 0, so the selected set depends
// only on the rng stream.
//
// Weighted is Scratch.Draw's per-value twin followed by Scratch.Select, for
// callers with a *rand.Rand and nothing to overlap.
func Weighted(rng *rand.Rand, ids []int32, weights []float64, k int) []int32 {
	s := GetScratch()
	defer PutScratch(s)
	s.keys = s.keys[:0]
	if k > 0 {
		s.keys = slices.Grow(s.keys, len(weights))
		for _, w := range weights {
			if !(w > 0) { // zero, negative or NaN
				continue
			}
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			s.keys = append(s.keys, u)
		}
	}
	return s.Select(ids, weights, k)
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the package's pool, the one Weighted
// draws in; PutScratch returns it. A caller that draws many pools takes one
// per goroutine and so grows no buffers of its own.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the pool; s must not be used after.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Scratch holds one weighted draw between its two halves, and the buffers
// of both, kept and reused from draw to draw: per positive weight two
// float64 and an int32, and one of each more for the compacted weights when
// some weight is not positive. The zero value is ready; a Scratch serves one
// goroutine at a time.
type Scratch struct {
	keys []float64 // one per positive weight, in index order: u after Draw, log(u)/w in Select
	ws   []float64 // the positive weights, compacted, when some weight is not
	at   []int32   // the index in weights of each of ws
	work []float64 // what the selects reorder: a sample of keys, then the keys that can win
	cand []int32   // the positions in keys of the keys that can win, ascending
}

// Draw is the half of Weighted that reads the stream: one uniform in (0, 1)
// per positive weight, in index order, and none at all when k <= 0, taken
// from st in bulk. It leaves st, and the draw, where Weighted on rand.New(st)
// would.
func (s *Scratch) Draw(st *Stream, weights []float64, k int) {
	n := 0
	if k > 0 {
		n = positive(weights)
	}
	s.keys = slices.Grow(s.keys[:0], n)[:n]
	st.uniforms(s.keys)
}

// Select is the rest of Weighted: it keys the uniforms that Draw left for
// these same weights and k, and returns the winners. It reads no stream and
// no state but s, so any number of Selects may run at once on their own
// Scratches.
func (s *Scratch) Select(ids []int32, weights []float64, k int) []int32 {
	if k <= 0 {
		return nil
	}
	k = min(k, len(s.keys))
	return s.pick(ids, s.key(weights, k), k)
}

// key turns the uniforms into keys, unless all k of them win as they
// stand, and returns at: keys[j] belongs to weights[at[j]], and at is nil
// when every weight is positive and j is that index.
func (s *Scratch) key(weights []float64, k int) (at []int32) {
	keys, ws := s.keys, weights
	if len(keys) < len(weights) {
		s.ws, s.at = s.ws[:0], s.at[:0]
		for i, w := range weights {
			if w > 0 { // not zero, negative or NaN
				s.ws = append(s.ws, w)
				s.at = append(s.at, int32(i))
			}
		}
		ws, at = s.ws, s.at
	}
	if k < len(keys) {
		// key = u^(1/w); computed in log space for numerical stability:
		// log key = log(u)/w, and log is monotone, so compare log keys.
		logKeys(keys, ws)
	}
	return at
}

// pick returns the ids of the k winners among the keys key left.
func (s *Scratch) pick(ids, at []int32, k int) []int32 {
	keys := s.keys
	// out collects positions in keys and is turned into ids at the end.
	out := make([]int32, k)
	if k == len(keys) {
		// Room for every positive weight: each u beats the threshold of
		// -Inf as it stands.
		for j := range out {
			out[j] = int32(j)
		}
	} else {
		threshold, ties, cand := s.cut(k)
		// Exactly k candidates win; each is written where the next winner
		// goes, and kept if it is one.
		for x, o := 0, 0; o < k; x++ {
			j := cand[x]
			key := keys[j]
			win := 0
			if key > threshold {
				win = 1
			}
			if key == threshold && ties > 0 {
				win = 1
				ties--
			}
			out[o] = j
			o += win
		}
	}
	if at != nil {
		for x, j := range out {
			out[x] = at[j]
		}
	}
	if ids != nil {
		for x, i := range out {
			out[x] = ids[i]
		}
	}
	return out
}

// bracketSample is the most keys cut samples to place its bracket.
const bracketSample = 256

// cut returns the threshold, the k-th largest of s.keys (1 <= k <
// len(s.keys)), how many of the k largest equal it, and cand: the
// positions, ascending, of keys that include the k largest. A fixed strided
// sample of the keys places a bracket [lo, hi) around the k-th largest
// (bracket). One sweep keeps the positions of the keys at or above lo —
// about a fifth of L-WD's keys at n_s = |E|/10 — and a second copies out
// those of them below hi; the keys at or above hi win whatever the
// threshold, so the Floyd–Rivest select runs over the keys inside the
// bracket alone. If the k-th largest turns out to lie outside it, the
// select runs over all the keys. The threshold and its ties are a property
// of the k largest keys alone, so they are the same either way.
func (s *Scratch) cut(k int) (threshold float64, ties int, cand []int32) {
	keys := s.keys
	m := len(keys)
	s.work = slices.Grow(s.work[:0], m)[:m]
	s.cand = slices.Grow(s.cand[:0], m)[:m]
	work, cand := s.work, s.cand
	c, d := 0, 0 // keys at or above lo, and those of them below hi
	if lo, hi, ok := bracket(keys, work, k); ok {
		// Every position is written and only those of keys at or above lo
		// are kept; c never passes j, so nothing kept is overwritten. The
		// keys inside the bracket are then copied out, in the same way.
		for j, key := range keys {
			cand[c] = int32(j)
			in := 0
			if key >= lo {
				in = 1
			}
			c += in
		}
		for _, j := range cand[:c] {
			key := keys[j]
			work[d] = key
			below := 0
			if key < hi {
				below = 1
			}
			d += below
		}
	}
	above := c - d // winners whatever the threshold
	if c < k || above >= k {
		copy(work, keys)
		for j := range cand {
			cand[j] = int32(j)
		}
		c, d, above = m, m, 0
	}
	mid := work[:d]
	threshold = kthLargest(mid, k-above)
	// mid[d-(k-above):] now holds the rest of the k largest; those that only
	// equal the threshold are the ties the pool has room for.
	for _, key := range mid[d-(k-above):] {
		if key == threshold {
			ties++
		}
	}
	return threshold, ties, cand[:c]
}

// bracket places cut's bracket from every (len(keys)/n)-th key, n up to
// bracketSample, selected in buf: lo and hi are the sample keys whose ranks
// from the top lie three standard deviations of the sample's count below
// and above the rank where the k-th largest of all is expected; hi is +Inf
// when that rank would be the top. ok is false when the sample would be too
// small to place a bracket, or lo would keep more than half the keys.
func bracket(keys, buf []float64, k int) (lo, hi float64, ok bool) {
	n := min(bracketSample, len(keys)/4)
	if n < 16 {
		return 0, 0, false
	}
	p := float64(k) / float64(len(keys))
	mean := p * float64(n)
	margin := 3*math.Sqrt(mean*(1-p)) + 2
	rlo, rhi := int(mean+margin), int(mean-margin) // ranks from the top
	if 2*rlo > n {
		return 0, 0, false
	}
	stride := len(keys) / n
	sample := buf[:n]
	for i := range sample {
		sample[i] = keys[i*stride]
	}
	lo, hi = kthLargest(sample, rlo), math.Inf(1)
	if rhi >= 1 {
		// The rlo largest sit at the end of sample.
		hi = kthLargest(sample[n-rlo:], rhi)
	}
	return lo, hi, true
}

// kthLargest returns the k-th largest element of a, 1 <= k <= len(a), and
// reorders a so that it sits at a[len(a)-k] with nothing larger before it
// and nothing smaller after.
func kthLargest(a []float64, k int) float64 {
	rank := len(a) - k
	selectRank(a, 0, len(a)-1, rank)
	return a[rank]
}

// selectRank is Floyd and Rivest's SELECT (CACM 18(3), 1975, Algorithm 489):
// it reorders a[left..right] so that a[k] is the element a sort would put
// there, with nothing larger before it and nothing smaller after. It is a
// quickselect whose pivot, on a long range, is first selected out of a
// sample around k and lands just to k's far side, so one sweep of the range
// usually leaves little more than the sample: about n + min(k, n-k)
// comparisons where a median-of-three pivot takes some 3n, and with
// branches that mostly go one way (2.5x faster on 12 000 keys, k = n/10).
// Both scans stop on an element equal to the pivot, so equal elements split
// evenly rather than piling up on one side.
func selectRank(a []float64, left, right, k int) {
	for right > left {
		if right-left > 600 {
			// Recurse on a sample of s ~ n^(2/3) elements around k, offset
			// by sd so that a[k] ends up a pivot with rank just past k's.
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			selectRank(a,
				max(left, int(float64(k)-i*s/n+sd)),
				min(right, int(float64(k)+(n-i)*s/n+sd)), k)
		}
		// Partition a[left..right] about t = a[k]; the two ends are set up
		// as the scans' sentinels.
		t := a[k]
		i, j := left, right
		a[left], a[k] = a[k], a[left]
		if a[right] > t {
			a[right], a[left] = a[left], a[right]
		}
		for i < j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
			for a[i] < t {
				i++
			}
			for a[j] > t {
				j--
			}
		}
		if a[left] == t {
			a[left], a[j] = a[j], a[left]
		} else {
			j++
			a[j], a[right] = a[right], a[j]
		}
		// t is at j, in its sorted place; keep the side that holds k.
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}
