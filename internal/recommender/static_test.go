package recommender

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kgeval/internal/kg"
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
// negative, zero of either sign, subnormal or infinite, at column sizes on
// both sides of sortKeys' cutoff (slices.Sort below radixMin, radix above)
// and up to thousands of scores, where a bucket can hold hundreds.
func TestOptimalThresholdOnEdgeScores(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sizes := [][2]int{{1, 40}, {41, radixMin}, {radixMin - 40, radixMin + 40}, {radixMin + 41, 3072}}
	for trial := 0; trial < 200; trial++ {
		lo, hi := sizes[trial%len(sizes)][0], sizes[trial%len(sizes)][1]
		n := lo + rng.Intn(hi-lo+1)
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
		got, _, _ := optimalThreshold(0, ids, scores, known, numEntities, make([]uint64, 4*len(ids)))
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

// BuildStatic reads its known members from the Bᵀ Fit kept, so it refuses a
// matrix Fit did not build and a graph other than the one it was fitted on,
// rather than measuring recall against the wrong members.
func TestBuildStaticRefusesAMatrixItCannotReadMembersOf(t *testing.T) {
	g := &kg.Graph{NumEntities: 4, NumRelations: 1, Train: []kg.Triple{{H: 0, R: 0, T: 1}, {H: 2, R: 0, T: 3}}}
	pt := NewPT()
	if err := pt.Fit(g); err != nil {
		t.Fatal(err)
	}
	if cs := BuildStatic(pt.Scores(), g, DefaultStaticOpts()); !slices.Equal(cs.Sets[0], []int32{0, 2}) {
		t.Fatalf("PT's domain set %v, want [0 2]", cs.Sets[0])
	}
	wider := *g
	wider.NumEntities++
	for what, call := range map[string]func(){
		"a matrix from NewScoreMatrix": func() {
			BuildStatic(NewScoreMatrix(pt.Scores().byCol, 1), g, DefaultStaticOpts())
		},
		"a graph of another shape": func() { BuildStatic(pt.Scores(), &wider, DefaultStaticOpts()) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "fitted on") {
					t.Errorf("%s: recovered %q, want a panic naming the fitted graph", what, msg)
				}
			}()
			call()
		}()
	}
}

// FuzzOptimalThreshold holds the bucketed search to the oracle's full sort
// and sweep on columns whose values come from the fuzz bytes: eight bytes a
// value (NaNs dropped), or with mode&1 each value a few thousand ulps from
// the first, so that many distinct keys share a bucket. Each entity of up
// to 4 096 is in the column at a rate mode picks, with one of the values
// drawn from seed, and is a known member at knownRate/256, whether in the
// column or not. The kept counts must be what the threshold keeps.
func FuzzOptimalThreshold(f *testing.F) {
	bytesOf := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	f.Add(uint64(1), uint16(3000), uint8(64), uint8(0), bytesOf(edgeScores...))
	f.Add(uint64(2), uint16(2000), uint8(30), uint8(6), bytesOf(0.25))                           // one distinct score
	f.Add(uint64(3), uint16(1500), uint8(10), uint8(4), bytesOf(negZero, 0))                     // ±0 only
	f.Add(uint64(4), uint16(1100), uint8(40), uint8(2), bytesOf(tiny, 2*tiny, 0x1p-1022, -tiny)) // subnormals
	f.Add(uint64(5), uint16(1200), uint8(20), uint8(6), bytesOf(math.Inf(-1), math.Inf(1), 1))
	f.Add(uint64(6), uint16(4000), uint8(0), uint8(4), bytesOf(edgeScores...))          // no known members
	f.Add(uint64(7), uint16(4000), uint8(2), uint8(6), bytesOf(1, 2))                   // long ties
	f.Add(uint64(8), uint16(4000), uint8(200), uint8(0), bytesOf(0.5, 0.7, 0.9))        // members outside the column
	f.Add(uint64(9), uint16(4000), uint8(12), uint8(7), bytesOf(1, 1.5, 3, 0x1p-40, 7)) // a few ulps apart
	f.Add(uint64(10), uint16(30), uint8(90), uint8(3), bytesOf(math.Inf(1), negZero, -1))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, knownRate, mode uint8, data []byte) {
		var values []float64
		for ; len(data) >= 8; data = data[8:] {
			bits := binary.LittleEndian.Uint64(data)
			if mode&1 != 0 && len(values) > 0 {
				bits = math.Float64bits(values[0]) + bits%4096
			}
			if v := math.Float64frombits(bits); v == v {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		numEntities := 1 + int(size)%4096
		inColumn := 1 + int(mode>>1)%4 // in quarters
		var ids, known []int32
		var scores []float64
		for e := 0; e < numEntities; e++ {
			if rng.Intn(4) < inColumn {
				ids = append(ids, int32(e))
				scores = append(scores, values[rng.Intn(len(values))])
			}
			if rng.Intn(256) < int(knownRate) {
				known = append(known, int32(e))
			}
		}
		got, kept, knownKept := optimalThreshold(0, ids, scores, known, numEntities, make([]uint64, 4*len(ids)))
		if want := oracleOptimalThreshold(ids, scores, known, numEntities); got != want {
			t.Fatalf("threshold %v, want %v (%d scores, %d known)", got, want, len(ids), len(known))
		}
		wantKept, wantKnown := 0, 0
		for i, id := range ids {
			if scores[i] >= got {
				wantKept++
				if _, found := slices.BinarySearch(known, id); found {
					wantKnown++
				}
			}
		}
		if kept != wantKept || knownKept != wantKnown {
			t.Fatalf("threshold %v keeps %d entities, %d known; reported %d, %d", got, wantKept, wantKnown, kept, knownKept)
		}
	})
}

// Two thresholds in different buckets can be equally near (1, 1) to the
// last bit; the higher one wins, as in the sweep. Of 1 950 entities and 5
// known members, the top score keeps 1 entity, known, and the score 1 keeps
// the n that make the two distances tie (n = 1 351 when dist rounds each
// operation, both at 0.64000026…). n is found from dist as this build
// computes it, since a target that fuses dist's multiply-adds may round the
// tie away; the search may drop the top bucket only when its bound is
// strictly above the best distance known.
func TestOptimalThresholdTieAcrossBucketsGoesHigh(t *testing.T) {
	const numEntities, numKnown, filler = 1950, 5, 400
	c := cut{numKnown: numKnown, numEntities: numEntities}
	n := 4
	for n+filler+2 <= numEntities && c.dist(n, 3) != c.dist(1, 1) {
		n++
	}
	if n+filler+2 > numEntities {
		t.Skip("no column of this shape ties its top score with the score 1 here")
	}
	var ids, known []int32
	var scores []float64
	add := func(score float64, isKnown bool) {
		e := int32(len(ids))
		ids, scores = append(ids, e), append(scores, score)
		if isKnown {
			known = append(known, e)
		}
	}
	add(1000, true)
	for range n - 3 {
		add(2, false)
	}
	add(1, true)
	add(1, true)
	for range filler {
		add(0.5, false)
	}
	known = append(known, numEntities-2, numEntities-1) // not in the column
	got, kept, knownKept := optimalThreshold(0, ids, scores, known, numEntities, make([]uint64, 4*len(ids)))
	if want := oracleOptimalThreshold(ids, scores, known, numEntities); got != want || got != 1000 || kept != 1 || knownKept != 1 {
		t.Fatalf("n=%d: threshold %v keeping %d (%d known), want %v (oracle) = 1000 keeping 1 (1 known)", n, got, kept, knownKept, want)
	}
}
