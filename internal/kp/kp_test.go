package kp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/synth"
)

func TestDiagramPathGraph(t *testing.T) {
	// Path 0-1-2-3 with increasing weights: every edge merges the new
	// vertex (born at that weight) into the old component → no finite
	// pairs, one essential class born at 1 dying at the max weight 3.
	edges := []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}}
	d := Diagram(edges)
	want := []Point{{Birth: 1, Death: 3}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Diagram = %v, want %v", d, want)
	}
}

func TestDiagramTwoClusters(t *testing.T) {
	// Two tight clusters (weights 1) joined late (weight 10): the younger
	// cluster dies at 10, the older survives as the essential class.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 1}, // cluster A born at 1
		{10, 11, 2}, // cluster B born at 2
		{2, 10, 10}, // bridge
	}
	d := Diagram(edges)
	want := []Point{{Birth: 1, Death: 10}, {Birth: 2, Death: 10}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Diagram = %v, want %v", d, want)
	}
}

func TestDiagramCycleIgnored(t *testing.T) {
	// Triangle: third edge closes a cycle and must not add a 0-dim pair.
	edges := []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}}
	d := Diagram(edges)
	want := []Point{{Birth: 1, Death: 3}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Diagram = %v, want %v", d, want)
	}
}

func TestDiagramEmpty(t *testing.T) {
	if d := Diagram(nil); d != nil {
		t.Fatalf("Diagram(nil) = %v, want nil", d)
	}
}

// Property: number of essential classes equals number of connected
// components; all deaths ≥ births.
func TestDiagramProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		ne := 1 + rng.Intn(60)
		edges := make([]Edge, ne)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), W: rng.Float64()}
		}
		d := Diagram(edges)
		maxW := 0.0
		for _, e := range edges {
			if e.W > maxW {
				maxW = e.W
			}
		}
		// Count components via a simple union-find replay.
		parent := map[int32]int32{}
		var find func(x int32) int32
		find = func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for _, e := range edges {
			if _, ok := parent[e.U]; !ok {
				parent[e.U] = e.U
			}
			if _, ok := parent[e.V]; !ok {
				parent[e.V] = e.V
			}
			parent[find(e.U)] = find(e.V)
		}
		comps := map[int32]bool{}
		for v := range parent {
			comps[find(v)] = true
		}
		essential := 0
		for _, p := range d {
			if p.Death < p.Birth {
				return false
			}
			if p.Death == maxW {
				essential++
			}
		}
		// Essential classes (death == maxW) at least cover the components;
		// finite pairs may coincidentally die at maxW too.
		return essential >= len(comps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlicedWassersteinIdentity(t *testing.T) {
	d := []Point{{0.1, 0.5}, {0.2, 0.9}}
	if got := SlicedWasserstein(d, d, 16); got != 0 {
		t.Fatalf("SW(d,d) = %v, want 0", got)
	}
	if got := SlicedWasserstein(nil, nil, 16); got != 0 {
		t.Fatalf("SW(∅,∅) = %v, want 0", got)
	}
}

func TestSlicedWassersteinSymmetry(t *testing.T) {
	a := []Point{{0.1, 0.5}, {0.3, 0.6}}
	b := []Point{{0.2, 0.8}}
	ab := SlicedWasserstein(a, b, 32)
	ba := SlicedWasserstein(b, a, 32)
	if math.Abs(ab-ba) > 1e-12 {
		t.Fatalf("SW not symmetric: %v vs %v", ab, ba)
	}
	if ab <= 0 {
		t.Fatalf("SW of distinct diagrams = %v, want > 0", ab)
	}
}

func TestSlicedWassersteinMonotoneInSeparation(t *testing.T) {
	base := []Point{{0.5, 0.6}, {0.5, 0.7}}
	near := []Point{{0.55, 0.65}, {0.55, 0.75}}
	far := []Point{{0.9, 1.9}, {0.9, 2.0}}
	dNear := SlicedWasserstein(base, near, 32)
	dFar := SlicedWasserstein(base, far, 32)
	if dNear >= dFar {
		t.Fatalf("SW(base,near)=%v must be < SW(base,far)=%v", dNear, dFar)
	}
}

// randomModel scores uniformly at random but deterministically per triple.
type randomModel struct{}

func (randomModel) Name() string { return "random" }
func (randomModel) Dim() int     { return 1 }
func (randomModel) ScoreTriple(h, r, t int32) float64 {
	x := uint64(h)*2654435761 + uint64(r)*40503 + uint64(t)*97
	x ^= x >> 13
	return float64(x%1000)/1000 - 0.5
}
func (m randomModel) ScoreTails(h, r int32, cands []int32, out []float64) {
	for i, c := range cands {
		out[i] = m.ScoreTriple(h, r, c)
	}
}
func (m randomModel) ScoreHeads(r, t int32, cands []int32, out []float64) {
	for i, c := range cands {
		out[i] = m.ScoreTriple(c, r, t)
	}
}

// oracle scores known triples +5 and unknown −5.
type oracle struct{ idx *kg.FilterIndex }

func (oracle) Name() string { return "oracle" }
func (oracle) Dim() int     { return 1 }
func (o oracle) ScoreTriple(h, r, t int32) float64 {
	if o.idx.IsKnownTail(h, r, t) {
		return 5
	}
	return -5
}
func (o oracle) ScoreTails(h, r int32, cands []int32, out []float64) {
	for i, c := range cands {
		out[i] = o.ScoreTriple(h, r, c)
	}
}
func (o oracle) ScoreHeads(r, t int32, cands []int32, out []float64) {
	for i, c := range cands {
		out[i] = o.ScoreTriple(c, r, t)
	}
}

// A model that separates positives from negatives must get a larger KP
// score than one that scores randomly.
func TestKPScoreSeparatesGoodFromRandom(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Name: "kp-test", NumEntities: 250, NumRelations: 6, NumTypes: 8,
		NumTriples: 3000, ValidFrac: 0.06, TestFrac: 0.06, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	prov := &eval.RandomProvider{NumEntities: g.NumEntities, N: 50}

	good := Score(oracle{idx: kg.NewFilterIndex(g.Train, g.Valid, g.Test)}, g.Test, prov, 1)
	rnd := Score(randomModel{}, g.Test, prov, 1)
	if good.Score <= rnd.Score {
		t.Fatalf("KP(oracle)=%v must exceed KP(random)=%v", good.Score, rnd.Score)
	}
	if good.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
}

func TestKPScoreDeterministic(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Name: "kp-det", NumEntities: 200, NumRelations: 5, NumTypes: 6,
		NumTriples: 2000, ValidFrac: 0.06, TestFrac: 0.06, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	prov := &eval.RandomProvider{NumEntities: g.NumEntities, N: 40}
	a := Score(randomModel{}, g.Test, prov, 1)
	b := Score(randomModel{}, g.Test, prov, 1)
	if a.Score != b.Score {
		t.Fatalf("KP not deterministic: %v vs %v", a.Score, b.Score)
	}
}

// KP works with a real trained model and all three providers.
func TestKPWithTrainedModelAndProviders(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Name: "kp-prov", NumEntities: 250, NumRelations: 6, NumTypes: 8,
		NumTriples: 2500, ValidFrac: 0.06, TestFrac: 0.06, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	m := kgc.NewDistMult(g, 16, 2)
	tc := kgc.DefaultTrainConfig()
	tc.Epochs = 4
	kgc.Train(m, g, tc)

	res := Score(m, g.Test, &eval.RandomProvider{NumEntities: g.NumEntities, N: 30}, 1)
	if res.Score <= 0 {
		t.Fatalf("KP score = %v, want > 0 for a trained model", res.Score)
	}
}
