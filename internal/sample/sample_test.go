package sample

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestUniformDistinctAndInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		k := rng.Intn(n + 10)
		got := Uniform(rng, n, k)
		wantLen := k
		if k > n {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		seen := make(map[int32]bool)
		for _, v := range got {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformIsApproximatelyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range Uniform(rng, n, k) {
			counts[v]++
		}
	}
	expected := float64(trials*k) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 0.1*expected {
			t.Fatalf("element %d drawn %d times, expected ≈%.0f", i, c, expected)
		}
	}
}

func TestUniformFromSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	set := []int32{10, 20, 30}
	got := UniformFromSet(rng, set, 10)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3 (capped at set size)", len(got))
	}
	allowed := map[int32]bool{10: true, 20: true, 30: true}
	for _, v := range got {
		if !allowed[v] {
			t.Fatalf("sampled %d not in set", v)
		}
	}
}

func TestWeightedBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []float64{0, 1, 0, 2, 0}
	got := Weighted(rng, nil, weights, 10)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2 (only positive-weight items)", len(got))
	}
	seen := map[int32]bool{}
	for _, v := range got {
		if v != 1 && v != 3 {
			t.Fatalf("sampled %d, want only 1 or 3", v)
		}
		if seen[v] {
			t.Fatalf("duplicate %d in without-replacement sample", v)
		}
		seen[v] = true
	}
	if Weighted(rng, nil, weights, 0) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestWeightedWithExplicitIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ids := []int32{100, 200, 300}
	got := Weighted(rng, ids, []float64{1, 1, 1}, 2)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	for _, v := range got {
		if v != 100 && v != 200 && v != 300 {
			t.Fatalf("sampled %d, not one of the ids", v)
		}
	}
}

func TestWeightedSkipsNaNAndNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got := Weighted(rng, nil, []float64{math.NaN(), -1, 0.5}, 3)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
}

// Property: Weighted never returns duplicates and only positive-weight ids.
func TestWeightedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		weights := make([]float64, n)
		positive := 0
		for i := range weights {
			if rng.Intn(3) > 0 {
				weights[i] = rng.Float64() + 0.01
				positive++
			}
		}
		k := rng.Intn(n + 5)
		got := Weighted(rng, nil, weights, k)
		wantLen := k
		if positive < k {
			wantLen = positive
		}
		if len(got) != wantLen {
			return false
		}
		seen := make(map[int32]bool)
		for _, v := range got {
			if weights[v] <= 0 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Heavier-weighted items must be sampled more often when k < #items.
func TestWeightedBias(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	weights := []float64{1, 1, 1, 1, 20}
	const trials = 5000
	hit4 := 0
	for i := 0; i < trials; i++ {
		for _, v := range Weighted(rng, nil, weights, 1) {
			if v == 4 {
				hit4++
			}
		}
	}
	// Item 4 carries 20/24 ≈ 83% of the mass.
	if frac := float64(hit4) / trials; frac < 0.75 || frac > 0.92 {
		t.Fatalf("heavy item sampled %.3f of the time, want ≈0.83", frac)
	}
}

// referenceWeighted is Efraimidis–Spirakis without a heap: key every
// positive-weight item from the same rng stream, sort all keys, keep the k
// largest. Ties between keys cannot occur short of identical draws.
func referenceWeighted(rng *rand.Rand, ids []int32, weights []float64, k int) []int32 {
	if k <= 0 {
		return nil // nothing is drawn, so nothing is keyed either
	}
	type keyed struct {
		id  int32
		key float64
	}
	var items []keyed
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) {
			continue
		}
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		items = append(items, keyed{id, math.Log(u) / w})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key > items[j].key })
	if len(items) > k {
		items = items[:k]
	}
	out := make([]int32, len(items))
	for i, it := range items {
		out[i] = it.id
	}
	return out
}

func sortedCopy(xs []int32) []int32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func TestWeightedSelectsReferenceSet(t *testing.T) {
	gen := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		n := gen.Intn(200)
		weights := make([]float64, n)
		positive := 0
		for i := range weights {
			switch gen.Intn(8) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = -gen.Float64()
			case 2:
				weights[i] = math.NaN()
			default:
				weights[i] = gen.ExpFloat64()
				positive++
			}
		}
		var ids []int32
		if trial%2 == 1 {
			ids = make([]int32, n)
			for i := range ids {
				ids[i] = int32(1000 + 3*i)
			}
		}
		// k below, at and above the number of positive weights, and 0.
		for _, k := range []int{0, 1, positive / 2, positive, positive + 5} {
			seed := int64(trial*10 + k)
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := Weighted(rngGot, ids, weights, k)
			want := referenceWeighted(rngWant, ids, weights, k)
			if !slices.Equal(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("trial %d k=%d: selected %v, reference %v", trial, k, sortedCopy(got), sortedCopy(want))
			}
			if rngGot.Int63() != rngWant.Int63() {
				t.Fatalf("trial %d k=%d: rng consumption differs from one draw per positive weight", trial, k)
			}
		}
	}
}

// referenceUniform is Floyd's algorithm with a map for membership, as Uniform
// was written before it switched to a bitset; its shuffled order is one
// Uniform no longer produces, so the comparison is on the sorted result.
func referenceUniform(rng *rand.Rand, n, k int) []int32 {
	if k >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	chosen := make(map[int32]struct{}, k)
	out := make([]int32, 0, k)
	for j := n - k; j < n; j++ {
		t := int32(rng.Intn(j + 1))
		if _, ok := chosen[t]; ok {
			t = int32(j)
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestUniformMatchesMapReference(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		n := gen.Intn(500)
		k := gen.Intn(n + 20) // sometimes k >= n
		seed := gen.Int63()
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := Uniform(rngGot, n, k), sortedCopy(referenceUniform(rngWant, n, k))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d seed=%d: got %v, want %v", n, k, seed, got, want)
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("n=%d k=%d seed=%d: rng consumption differs", n, k, seed)
		}
	}
}
