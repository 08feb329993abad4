// Package sample provides the deterministic sampling primitives used by the
// evaluation framework: uniform and weighted sampling without replacement.
//
// All functions take an explicit *rand.Rand so that every experiment in the
// repository is reproducible from a seed, and all return their ids in
// ascending order of index (ascending ids when the input ids or set are
// ascending), which is what the evaluation plan's pools have to be: nothing
// downstream sorts. The weighted draw also comes apart into the half that
// reads the rng and the half that does not (Scratch), so that a caller who
// must keep many draws on one stream can serialize only the first.
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
// Runs in O(n): every key is computed, the k-th largest is found by
// quickselect, and the items whose key beats that threshold are emitted in
// one more sweep. An item whose key equals the threshold is taken only while
// the pool is short of k, lowest index first; equal keys need identical
// draws or weights at the edge of the float range, so this decides nothing
// in practice, but it is the rule. This is what makes the Probabilistic
// sampling strategy cost only 2·|R| sampling passes per evaluation. A call
// allocates the result, min(k, #positive weights) ids, and nothing else: the
// keys live in pooled scratch. It consumes one rng.Float64 per positive
// weight in index order, so the selected set depends only on the rng stream.
//
// Weighted is Scratch.Draw followed by Scratch.Select, for callers with
// nothing to overlap.
func Weighted(rng *rand.Rand, ids []int32, weights []float64, k int) []int32 {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	s.Draw(rng, weights, k)
	return s.Select(ids, weights, k)
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch holds one weighted draw between its two halves, and the buffers
// of both: two float64 per positive weight, kept and reused from draw to
// draw. The zero value is ready; a Scratch serves one goroutine at a time.
type Scratch struct {
	keys []float64 // one per positive weight, in index order: u after Draw, log(u)/w in Select
	work []float64 // the copy of keys that the quickselect reorders
}

// Draw is the half of Weighted that reads the rng: one uniform in (0, 1)
// per positive weight, in index order, and none at all when k <= 0.
func (s *Scratch) Draw(rng *rand.Rand, weights []float64, k int) {
	s.keys = s.keys[:0]
	if k <= 0 {
		return
	}
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

// Select is the rest of Weighted: it keys the uniforms that Draw left for
// these same weights and k, and returns the winners. It reads no rng and no
// state but s, so any number of Selects may run at once on their own
// Scratches.
func (s *Scratch) Select(ids []int32, weights []float64, k int) []int32 {
	if k <= 0 {
		return nil
	}
	keys := s.keys
	k = min(k, len(keys))
	// With room for every positive weight nothing is keyed: each u beats
	// this threshold as it stands.
	threshold, ties := math.Inf(-1), 0
	if k < len(keys) {
		// key = u^(1/w); computed in log space for numerical stability:
		// log key = log(u)/w, and log is monotone, so compare log keys.
		j := 0
		for _, w := range weights {
			if !(w > 0) { // zero, negative or NaN
				continue
			}
			keys[j] = math.Log(keys[j]) / w
			j++
		}
		s.work = append(s.work[:0], keys...)
		threshold = kthLargest(s.work, k)
		// work[len-k:] now holds the k largest; those that only equal the
		// threshold are the ties the pool has room for.
		for _, key := range s.work[len(s.work)-k:] {
			if key == threshold {
				ties++
			}
		}
	}
	out := make([]int32, 0, k)
	j := 0
	for i, w := range weights {
		if !(w > 0) { // zero, negative or NaN
			continue
		}
		key := keys[j]
		j++
		if key == threshold && ties > 0 {
			ties--
		} else if !(key > threshold) {
			continue
		}
		if ids != nil {
			out = append(out, ids[i])
		} else {
			out = append(out, int32(i))
		}
	}
	return out
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
