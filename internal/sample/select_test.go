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
