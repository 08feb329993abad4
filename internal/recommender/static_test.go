package recommender

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// edgeScores are the values on which an integer key order could part from
// float64's <: both zeros, subnormals, negatives, infinities, neighbours.
var edgeScores = []float64{
	math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022,
	0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 3, math.MaxFloat64, math.Inf(1),
}

// sortKey's order is < on float64, -0 and +0 share a key, and keyScore is its
// inverse up to the sign of zero.
func TestSortKeyOrderIsFloatOrder(t *testing.T) {
	for _, a := range edgeScores {
		for _, b := range edgeScores {
			if (a < b) != (sortKey(a) < sortKey(b)) || (a == b) != (sortKey(a) == sortKey(b)) {
				t.Errorf("%v vs %v: keys %#x, %#x order differently", a, b, sortKey(a), sortKey(b))
			}
		}
		if back := keyScore(sortKey(a)); back != a || (a != 0 && math.Float64bits(back) != math.Float64bits(a)) {
			t.Errorf("keyScore(sortKey(%v)) = %v", a, back)
		}
	}
	if got := keyScore(sortKey(math.Copysign(0, -1))); math.Signbit(got) {
		t.Errorf("-0 came back as %v, want +0", got)
	}
}

// sortKeys agrees with a comparison sort of the scores on either side of
// radixMin, on edge values (repeated, so ties are long), on arbitrary bit
// patterns, and on lists that differ in a few bits only, where digit
// positions are skipped.
func TestSortKeysMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	draw := map[string]func() float64{
		"edge": func() float64 { return edgeScores[rng.Intn(len(edgeScores))] },
		"bits": func() float64 {
			for {
				if f := math.Float64frombits(rng.Uint64()); f == f {
					return f
				}
			}
		},
		"counts":   func() float64 { return float64(1 + rng.Intn(700)) },
		"unit":     rng.Float64,
		"constant": func() float64 { return 0.25 },
	}
	for name, next := range draw {
		for _, n := range []int{1, 2, radixMin - 1, radixMin, radixMin + 1, 5000} {
			scores := make([]float64, n)
			keys := make([]uint64, n)
			for i := range scores {
				scores[i] = next()
				keys[i] = sortKey(scores[i])
			}
			slices.Sort(scores)
			got := sortKeys(keys, make([]uint64, n))
			for i, k := range got {
				if keyScore(k) != scores[i] {
					t.Fatalf("%s, n=%d: position %d holds %v, want %v", name, n, i, keyScore(k), scores[i])
				}
			}
		}
	}
}

// optimalThreshold picks the oracle's threshold on columns whose scores are
// negative, zero of either sign, subnormal or infinite, on both sort paths.
func TestOptimalThresholdOnEdgeScores(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		if trial%4 == 0 {
			n += 2 * radixMin
		}
		numEntities := 2 * n
		var ids, known []int32
		var scores []float64
		for e := 0; e < numEntities; e++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, int32(e))
				scores = append(scores, edgeScores[rng.Intn(len(edgeScores))])
			}
			if rng.Intn(3) == 0 {
				known = append(known, int32(e))
			}
		}
		got := optimalThreshold(0, ids, scores, known, numEntities, make([]uint64, 4*len(ids)))
		if want := oracleOptimalThreshold(ids, scores, known, numEntities); got != want {
			t.Fatalf("trial %d: threshold %v, want %v (scores %v)", trial, got, want, scores)
		}
	}
}

// A NaN score is a bug in the recommender that produced it; discretization
// says so, and where, rather than sorting it somewhere.
func TestOptimalThresholdPanicsOnNaN(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "NaN") || !strings.Contains(msg, "column 7") {
			t.Fatalf("recovered %q, want a panic naming NaN and column 7", msg)
		}
	}()
	optimalThreshold(7, []int32{0, 1}, []float64{0.5, math.NaN()}, nil, 4, make([]uint64, 8))
}
