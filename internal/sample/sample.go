// Package sample provides the deterministic sampling primitives used by the
// evaluation framework: uniform and weighted sampling without replacement.
//
// All functions take an explicit *rand.Rand so that every experiment in the
// repository is reproducible from a seed.
package sample

import (
	"math"
	"math/rand"
)

// Uniform draws k distinct integers from [0, n) uniformly at random using
// Floyd's algorithm (O(k) draws). If k >= n, all of [0, n) is returned in
// shuffled order. Membership is tracked in an n-bit set, so a call allocates
// the result plus n/8 bytes and nothing per draw. Serial: the draws are one
// sequence on the caller's rng, so the result depends on nothing else.
func Uniform(rng *rand.Rand, n, k int) []int32 {
	if k >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	chosen := make([]uint64, (n+63)/64)
	out := make([]int32, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t/64]&(1<<(t%64)) != 0 {
			t = j
		}
		chosen[t/64] |= 1 << (t % 64)
		out = append(out, int32(t))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// UniformFromSet draws min(k, len(set)) distinct elements from set uniformly
// at random. The input slice is not modified.
func UniformFromSet(rng *rand.Rand, set []int32, k int) []int32 {
	idx := Uniform(rng, len(set), k)
	out := make([]int32, len(idx))
	for i, j := range idx {
		out[i] = set[j]
	}
	return out
}

// Weighted draws up to k items without replacement with probability
// proportional to their weights, using the Efraimidis–Spirakis scheme: each
// item i gets key uᵢ^(1/wᵢ) for uᵢ ~ U(0,1) and the k largest keys win.
// Items with non-positive weight are never selected. ids[i] pairs with
// weights[i]; pass nil ids to mean ids[i] = i.
//
// Runs in O(n log k); this is what makes the Probabilistic sampling strategy
// cost only 2·|R| sampling passes per evaluation. The k largest keys are
// kept in a typed binary min-heap held as two parallel arrays, of which the
// id array is the result: two allocations of min(k, n) elements per call
// and none per item. Serial, consuming one rng.Float64 per positive weight
// in index order, so the selected set depends only on the rng stream.
func Weighted(rng *rand.Rand, ids []int32, weights []float64, k int) []int32 {
	if k <= 0 {
		return nil
	}
	k = min(k, len(weights))
	h := keyHeap{ids: make([]int32, 0, k), keys: make([]float64, 0, k)}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) {
			continue
		}
		// key = u^(1/w); computed in log space for numerical stability:
		// log key = log(u)/w, and log is monotone, so compare log keys.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		key := math.Log(u) / w
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		if len(h.keys) < k {
			h.push(id, key)
		} else if key > h.keys[0] {
			h.replaceMin(id, key)
		}
	}
	return h.ids
}

// keyHeap is a binary min-heap over Efraimidis–Spirakis keys, holding the
// largest keys seen so far; ids[i] pairs with keys[i].
type keyHeap struct {
	ids  []int32
	keys []float64
}

func (h *keyHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
}

// push appends an item and sifts it up.
func (h *keyHeap) push(id int32, key float64) {
	h.ids = append(h.ids, id)
	h.keys = append(h.keys, key)
	for j := len(h.keys) - 1; j > 0; {
		parent := (j - 1) / 2
		if !(h.keys[j] < h.keys[parent]) {
			break
		}
		h.swap(parent, j)
		j = parent
	}
}

// replaceMin overwrites the root and sifts it down.
func (h *keyHeap) replaceMin(id int32, key float64) {
	h.ids[0], h.keys[0] = id, key
	n := len(h.keys)
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.keys[right] < h.keys[child] {
			child = right
		}
		if !(h.keys[child] < h.keys[i]) {
			break
		}
		h.swap(i, child)
		i = child
	}
}
