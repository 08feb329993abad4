package sample

// The samplers this file holds are the ones the package shipped before the
// draw was rebuilt for speed: Weighted on a typed k-heap of keys, Uniform as
// Floyd's algorithm followed by a shuffle, each followed by the slices.Sort
// its caller in eval/providers.go used to run. They are kept verbatim under
// an "oracle" prefix as the reference the threshold-select and bitset-emit
// versions must match: the same ids in the same (ascending) order, and the
// rng left at the same point of its stream.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func oracleUniform(rng *rand.Rand, n, k int) []int32 {
	if k >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		slices.Sort(out)
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
	slices.Sort(out)
	return out
}

func oracleUniformFromSet(rng *rand.Rand, set []int32, k int) []int32 {
	idx := oracleUniform(rng, len(set), k)
	out := make([]int32, len(idx))
	for i, j := range idx {
		out[i] = set[j]
	}
	slices.Sort(out)
	return out
}

func oracleWeighted(rng *rand.Rand, ids []int32, weights []float64, k int) []int32 {
	if k <= 0 {
		return nil
	}
	k = min(k, len(weights))
	h := oracleKeyHeap{ids: make([]int32, 0, k), keys: make([]float64, 0, k)}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) {
			continue
		}
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
	slices.Sort(h.ids)
	return h.ids
}

// oracleKeyHeap is a binary min-heap over Efraimidis–Spirakis keys, holding
// the largest keys seen so far; ids[i] pairs with keys[i].
type oracleKeyHeap struct {
	ids  []int32
	keys []float64
}

func (h *oracleKeyHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
}

func (h *oracleKeyHeap) push(id int32, key float64) {
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

func (h *oracleKeyHeap) replaceMin(id int32, key float64) {
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

// sameDraw compares one draw with the oracle's: the ids with ==, element for
// element, and the next value of each rng.
func sameDraw(t *testing.T, what string, got, want []int32, rngGot, rngWant *rand.Rand) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: drew %v, oracle %v", what, got, want)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("%s: %v is not ascending", what, got)
	}
	if rngGot.Int63() != rngWant.Int63() {
		t.Fatalf("%s: the rng is not where the oracle leaves it", what)
	}
}

// TestWeightedMatchesHeapOracle: 500 generated weight vectors × 5 sizes.
func TestWeightedMatchesHeapOracle(t *testing.T) {
	gen := rand.New(rand.NewSource(20))
	cases := 0
	for trial := 0; trial < 500; trial++ {
		n := gen.Intn(300)
		if trial%50 == 0 {
			n = 3000 + gen.Intn(3000) // long enough for the quickselect to recurse
		}
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
			case 3:
				weights[i] = float64(1 + gen.Intn(3)) // repeated weights
				positive++
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
		for _, k := range []int{0, 1, positive / 2, positive, positive + 5} {
			seed := gen.Int63()
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := Weighted(rngGot, ids, weights, k), oracleWeighted(rngWant, ids, weights, k)
			sameDraw(t, "Weighted", got, want, rngGot, rngWant)
			if want := min(k, positive); len(got) != want || cap(got) != want {
				t.Fatalf("Weighted: len %d cap %d for k=%d over %d positive weights", len(got), cap(got), k, positive)
			}
			cases++
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestUniformMatchesShuffleOracle: Uniform and UniformFromSet against Floyd +
// shuffle + sort, k below, at and above n.
func TestUniformMatchesShuffleOracle(t *testing.T) {
	gen := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		n := gen.Intn(600)
		k := gen.Intn(n + 20)
		switch trial % 10 {
		case 0:
			k = 0
		case 1:
			k = n
		}
		seed := gen.Int63()
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		sameDraw(t, "Uniform", Uniform(rngGot, n, k), oracleUniform(rngWant, n, k), rngGot, rngWant)

		set := make([]int32, n)
		for i := range set {
			set[i] = int32(7 + 5*i)
		}
		kept := slices.Clone(set)
		rngGot, rngWant = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		sameDraw(t, "UniformFromSet", UniformFromSet(rngGot, set, k), oracleUniformFromSet(rngWant, set, k), rngGot, rngWant)
		if !slices.Equal(set, kept) {
			t.Fatal("UniformFromSet modified its input")
		}
	}
}

// cycleSource is a rand.Source that repeats a fixed sequence of Int63 values,
// which rng.Float64 turns into value / 2^53.
type cycleSource struct {
	vals []int64
	next int
}

func (s *cycleSource) Int63() int64 {
	v := s.vals[s.next%len(s.vals)]
	s.next++
	return v
}
func (s *cycleSource) Seed(int64) {}

// Equal keys at the threshold: the heap's choice among them was an accident
// of its shape, the documented rule is lowest index first, and the pool is
// exactly k either way.
func TestWeightedTiesGoToLowestIndex(t *testing.T) {
	const high, tie, low = 1 << 52, 1 << 51, 1 << 50 // u = 1/2, 1/4, 1/8
	// Unit weights, so the keys are log u; indices 1 and 6 carry no weight
	// and draw nothing.
	weights := []float64{1, 0, 1, 1, 1, 1, math.NaN(), 1, 1, 1}
	src := &cycleSource{vals: []int64{tie, low, high, tie, tie, low, high, tie}}
	//                          index:  0    2    3     4    5    7    8     9
	for k, want := range map[int][]int32{
		1: {3},
		2: {3, 8},
		3: {0, 3, 8},
		4: {0, 3, 4, 8},
		5: {0, 3, 4, 5, 8},
		6: {0, 3, 4, 5, 8, 9},
		7: {0, 2, 3, 4, 5, 8, 9},
		8: {0, 2, 3, 4, 5, 7, 8, 9},
		9: {0, 2, 3, 4, 5, 7, 8, 9},
	} {
		src.next = 0
		if got := Weighted(rand.New(src), nil, weights, k); !slices.Equal(got, want) {
			t.Errorf("k=%d: drew %v, want %v", k, got, want)
		}
	}
	// Every key equal: the first k indices.
	src = &cycleSource{vals: []int64{tie}}
	ids := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got, want := Weighted(rand.New(src), ids, weights, 3), []int32{10, 30, 40}; !slices.Equal(got, want) {
		t.Errorf("all keys equal: drew %v, want %v", got, want)
	}
}
