package sample

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kthLargest against a full sort, on ranges short and long enough to take
// selectRank's sampling step, with distinct keys, heavy duplication, -Inf
// runs and presorted input.
func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(200)
		if trial%4 == 0 {
			n = 500 + rng.Intn(6000)
		}
		a := make([]float64, n)
		for i := range a {
			switch trial % 5 {
			case 0:
				a[i] = float64(rng.Intn(4))
			case 1:
				a[i] = math.Inf(-1)
				if rng.Intn(3) == 0 {
					a[i] = rng.NormFloat64()
				}
			default:
				a[i] = math.Log(1-rng.Float64()) / rng.ExpFloat64()
			}
		}
		switch trial % 7 {
		case 0:
			slices.Sort(a)
		case 1:
			slices.Sort(a)
			slices.Reverse(a)
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		k := 1 + rng.Intn(n)
		got := kthLargest(a, k)
		if want := sorted[n-k]; got != want || a[n-k] != want {
			t.Fatalf("n=%d k=%d: got %v (a[n-k] = %v), want %v", n, k, got, a[n-k], want)
		}
		for i, v := range a {
			if (i < n-k && v > got) || (i > n-k && v < got) {
				t.Fatalf("n=%d k=%d: a[%d] = %v is on the wrong side of %v", n, k, i, v, got)
			}
		}
		slices.Sort(a)
		if !slices.Equal(a, sorted) {
			t.Fatalf("n=%d k=%d: the select changed the elements", n, k)
		}
	}
}

// sortPick is the k winners by a full sort: keys descending, lowest index
// first among equal keys, returned ascending.
func sortPick(keys []float64, k int) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		switch {
		case keys[a] > keys[b]:
			return -1
		case keys[a] < keys[b]:
			return 1
		}
		return 0
	})
	out := idx[:k]
	slices.Sort(out)
	return out
}

// The bracket comes from a strided sample; where the sampled keys mislead,
// cut must fall back to selecting over every key. Planted columns put the
// sampled positions' keys far below the rest (the bracket sits too low, so
// more than k keys clear its top), far above (too few clear its bottom), or
// tie them with everything, and pick must still match a full sort.
func TestCutWhereTheSampleMisleads(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{64, 100, 1000, 8750} {
		stride := m / min(bracketSample, m/4)
		for _, plant := range []string{"low", "high", "tied", "random"} {
			keys := make([]float64, m)
			for i := range keys {
				sampled := i%stride == 0 && i/stride < min(bracketSample, m/4)
				switch {
				case plant == "tied":
					keys[i] = -1
				case plant == "low" && sampled:
					keys[i] = -1e9 - rng.Float64()
				case plant == "high" && sampled:
					keys[i] = -rng.Float64() * 1e-9
				default:
					keys[i] = math.Log(1-rng.Float64()) / rng.ExpFloat64()
				}
			}
			for _, k := range []int{1, m / 10, m / 3, m - 1} {
				var s Scratch
				s.keys = slices.Clone(keys)
				if got, want := s.pick(nil, nil, k), sortPick(keys, k); !slices.Equal(got, want) {
					t.Fatalf("m=%d %s k=%d: picked %v, a full sort picks %v", m, plant, k, got, want)
				}
			}
		}
	}
}
