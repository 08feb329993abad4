package kg

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func smallGraph() *Graph {
	return &Graph{
		Name:         "toy",
		NumEntities:  6,
		NumRelations: 3,
		NumTypes:     2,
		Train: []Triple{
			{0, 0, 1}, {1, 0, 2}, {2, 1, 3}, {3, 2, 4}, {0, 1, 5},
		},
		Valid: []Triple{{1, 1, 3}},
		Test:  []Triple{{0, 0, 2}, {4, 2, 5}},
		EntityTypes: [][]int32{
			{0}, {0}, {0, 1}, {1}, {1}, {},
		},
	}
}

func TestGraphValidateOK(t *testing.T) {
	if err := smallGraph().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestGraphValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Graph)
	}{
		{"head out of range", func(g *Graph) { g.Train[0].H = 99 }},
		{"negative head", func(g *Graph) { g.Train[0].H = -1 }},
		{"tail out of range", func(g *Graph) { g.Test[0].T = 99 }},
		{"relation out of range", func(g *Graph) { g.Valid[0].R = 99 }},
		{"type rows mismatch", func(g *Graph) { g.EntityTypes = g.EntityTypes[:2] }},
		{"type id out of range", func(g *Graph) { g.EntityTypes[0] = []int32{7} }},
		{"unsorted type list", func(g *Graph) { g.EntityTypes[2] = []int32{1, 0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := smallGraph()
			tc.mutate(g)
			if err := g.Validate(); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestNumTriplesAndAllTriples(t *testing.T) {
	g := smallGraph()
	if got, want := g.NumTriples(), 8; got != want {
		t.Fatalf("NumTriples() = %d, want %d", got, want)
	}
	all := g.AllTriples()
	if len(all) != 8 {
		t.Fatalf("AllTriples() len = %d, want 8", len(all))
	}
	// Must be a copy: mutating it must not affect the graph.
	all[0].H = 99
	if g.Train[0].H == 99 {
		t.Fatal("AllTriples() aliases the underlying split")
	}
}

// IsKnownHead is IsKnownTail from the head side: the tests' probe of the
// index Heads reads.
func (f *FilterIndex) IsKnownHead(h, r, t int32) bool {
	return contains(f.heads[pairKey(t, r)], h)
}

func TestFilterIndex(t *testing.T) {
	g := smallGraph()
	f := NewFilterIndex(g.Train, g.Valid, g.Test)

	if got := f.Tails(0, 0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Tails(0,0) = %v, want [1 2]", got)
	}
	if got := f.Heads(1, 3); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Heads(1,3) = %v, want [1 2]", got)
	}
	if !f.IsKnownTail(0, 0, 2) {
		t.Error("IsKnownTail(0,0,2) = false, want true (test split must be indexed)")
	}
	if f.IsKnownTail(0, 0, 3) {
		t.Error("IsKnownTail(0,0,3) = true, want false")
	}
	if !f.IsKnownHead(2, 1, 3) {
		t.Error("IsKnownHead(2,1,3): (2,1,3) in train, want true")
	}
	if f.IsKnownHead(5, 1, 3) {
		t.Error("IsKnownHead for absent triple = true, want false")
	}
	if hr, rt := len(f.tails), len(f.heads); hr == 0 || rt == 0 {
		t.Fatalf("indexed (%d,%d) (h,r)- and (r,t)-pairs, want nonzero", hr, rt)
	}
}

// TestFilterIndexContract checks each point of FilterIndex's contract
// directly: the union of the splits, duplicates once, the answer listed, no
// inverse inferred, self-loops on both sides, the largest id keyed exactly.
func TestFilterIndexContract(t *testing.T) {
	train := []Triple{{0, 0, 1}, {0, 0, 1}, {4, 1, 4}}
	valid := []Triple{{0, 0, 2}, {0, 0, 1}}
	test := []Triple{{3, 0, 1}}
	f := NewFilterIndex(train, valid, test)

	// The union of the splits it was given, each (h, r) or (r, t) once.
	if got := f.Tails(0, 0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Errorf("Tails(0,0) = %v, want [1 2]: train's and valid's tails, (0,0,1) once", got)
	}
	if got := f.Heads(0, 1); !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Errorf("Heads(0,1) = %v, want [0 3]: train's and test's heads, (0,0,1) once", got)
	}
	if got := NewFilterIndex(train).Tails(0, 0); !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("over train alone Tails(0,0) = %v, want [1]: a split not given is not known", got)
	}

	// The query's own answer is listed.
	for _, tr := range slices.Concat(train, valid, test) {
		if !slices.Contains(f.Tails(tr.H, tr.R), tr.T) || !slices.Contains(f.Heads(tr.R, tr.T), tr.H) {
			t.Errorf("%v: the answer is missing from its own query's list", tr)
		}
	}

	// No inverse: (0, 0, 1) makes 0 neither a tail of (1, 0, ?) nor 1 a
	// head of (?, 0, 0).
	if f.IsKnownTail(1, 0, 0) || len(f.Tails(1, 0)) != 0 {
		t.Errorf("Tails(1,0) = %v: (0,0,1) was read as (1,0,0)", f.Tails(1, 0))
	}
	if f.IsKnownHead(1, 0, 0) || len(f.Heads(0, 0)) != 0 {
		t.Errorf("Heads(0,0) = %v: (0,0,1) was read as (1,0,0)", f.Heads(0, 0))
	}

	// A self-loop is on both sides.
	if got := f.Tails(4, 1); !reflect.DeepEqual(got, []int32{4}) {
		t.Errorf("Tails(4,1) = %v, want [4] for the self-loop (4,1,4)", got)
	}
	if got := f.Heads(1, 4); !reflect.DeepEqual(got, []int32{4}) {
		t.Errorf("Heads(1,4) = %v, want [4] for the self-loop (4,1,4)", got)
	}

	// The largest int32 id round-trips through pairKey and keys its own
	// entry, apart from its neighbours and from the smallest id.
	const top = math.MaxInt32
	if k := pairKey(top, top-1); int32(k>>32) != top || int32(uint32(k)) != top-1 {
		t.Errorf("pairKey(%d, %d) = %#x does not round-trip", top, top-1, k)
	}
	big := NewFilterIndex([]Triple{{top, top, top}, {top - 1, top, 0}, {0, top, top}})
	if got := big.Tails(top, top); !reflect.DeepEqual(got, []int32{top}) {
		t.Errorf("Tails(max,max) = %v, want [%d]", got, top)
	}
	if got := big.Heads(top, top); !reflect.DeepEqual(got, []int32{0, top}) {
		t.Errorf("Heads(max,max) = %v, want [0 %d]", got, top)
	}
	if got := big.Tails(top-1, top); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("Tails(max-1,max) = %v, want [0]", got)
	}
	if got := big.Tails(0, top); !reflect.DeepEqual(got, []int32{top}) {
		t.Errorf("Tails(0,max) = %v, want [%d]", got, top)
	}
}

// Property: every triple indexed is found; no triple not indexed is found.
func TestFilterIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(50)
		ts := make([]Triple, n)
		present := make(map[Triple]bool)
		for i := range ts {
			ts[i] = Triple{int32(rng.Intn(12)), int32(rng.Intn(3)), int32(rng.Intn(12))}
			present[ts[i]] = true
		}
		idx := NewFilterIndex(ts)
		for tr := range present {
			if !idx.IsKnownTail(tr.H, tr.R, tr.T) || !idx.IsKnownHead(tr.H, tr.R, tr.T) {
				return false
			}
		}
		// Probe random absent triples.
		for i := 0; i < 50; i++ {
			tr := Triple{int32(rng.Intn(12)), int32(rng.Intn(3)), int32(rng.Intn(12))}
			if present[tr] {
				continue
			}
			if idx.IsKnownTail(tr.H, tr.R, tr.T) || idx.IsKnownHead(tr.H, tr.R, tr.T) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctQueryPairs(t *testing.T) {
	ts := []Triple{{0, 0, 1}, {0, 0, 2}, {1, 0, 2}, {0, 1, 1}}
	hr, rt := DistinctQueryPairs(ts)
	// (h,r): (0,0), (1,0), (0,1) => 3 ; (r,t): (0,1), (0,2), (1,1) => 3
	if hr != 3 || rt != 3 {
		t.Fatalf("DistinctQueryPairs = (%d,%d), want (3,3)", hr, rt)
	}
}

func TestDistinctRelations(t *testing.T) {
	ts := []Triple{{0, 0, 1}, {0, 2, 2}, {1, 0, 2}}
	if got := DistinctRelations(ts); got != 2 {
		t.Fatalf("DistinctRelations = %d, want 2", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := smallGraph()
	s := ComputeStats(g)
	if s.NumEntities != 6 || s.NumRelations != 3 || s.NumTypes != 2 {
		t.Fatalf("stats sizes wrong: %+v", s)
	}
	if s.Train != 5 || s.Valid != 1 || s.Test != 2 {
		t.Fatalf("stats split sizes wrong: %+v", s)
	}
	if s.NumTypePairs != 6 {
		t.Fatalf("NumTypePairs = %d, want 6", s.NumTypePairs)
	}
	if s.TrainPairs == 0 || s.TestPairs == 0 {
		t.Fatalf("pair counts must be nonzero: %+v", s)
	}
}

func TestTriplesTSVRoundTrip(t *testing.T) {
	in := []Triple{{0, 0, 1}, {5, 2, 3}, {100, 7, 100}}
	var buf bytes.Buffer
	if err := WriteTriplesTSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTriplesTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip = %v, want %v", out, in)
	}
}

func TestReadTriplesTSVErrors(t *testing.T) {
	cases := []string{
		"1\t2\n",                        // too few fields
		"1\t2\t3\t4\n",                  // too many fields
		"a\t2\t3\n",                     // non-integer
		"1\t2\t999999999999999999999\n", // overflow
	}
	for _, in := range cases {
		if _, err := ReadTriplesTSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadTriplesTSV(%q): want error, got nil", in)
		}
	}
	// Comments and blank lines are fine.
	got, err := ReadTriplesTSV(bytes.NewBufferString("# c\n\n1\t2\t3\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("ReadTriplesTSV with comments = %v, %v", got, err)
	}
}

func TestTypesTSVRoundTrip(t *testing.T) {
	in := [][]int32{{0, 1}, {}, {2}}
	var buf bytes.Buffer
	if err := WriteTypesTSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTypesTSV(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0], []int32{0, 1}) || len(out[1]) != 0 || !reflect.DeepEqual(out[2], []int32{2}) {
		t.Fatalf("round trip = %v, want %v", out, in)
	}
}

func TestReadTypesTSVErrors(t *testing.T) {
	if _, err := ReadTypesTSV(bytes.NewBufferString("5\t0\n"), 3); err == nil {
		t.Error("entity out of range: want error")
	}
	if _, err := ReadTypesTSV(bytes.NewBufferString("1\n"), 3); err == nil {
		t.Error("too few fields: want error")
	}
	if _, err := ReadTypesTSV(bytes.NewBufferString("x\t0\n"), 3); err == nil {
		t.Error("non-integer: want error")
	}
}

// FuzzReadTriplesTSV: any bytes a -data file can hold either fail to parse
// or parse into triples that WriteTriplesTSV writes back to the same triples.
func FuzzReadTriplesTSV(f *testing.F) {
	for _, seed := range []string{"0\t0\t1\n5\t2\t3\n", "# c\n\n1\t2\t3\n", " 1 \t+2\t-3\r\n", "1\t2\n", "1\t2\t999999999999999999999\n"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		triples, err := ReadTriplesTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTriplesTSV(&buf, triples); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTriplesTSV(&buf)
		if err != nil {
			t.Fatalf("reading back what was written: %v", err)
		}
		if len(back) != len(triples) || (len(back) > 0 && !reflect.DeepEqual(back, triples)) {
			t.Fatalf("round trip = %v, want %v", back, triples)
		}
	})
}

// FuzzReadTypesTSV: any bytes a -data types file can hold either fail to
// parse or give every entity a sorted, duplicate-free type list that
// WriteTypesTSV writes back to the same lists.
func FuzzReadTypesTSV(f *testing.F) {
	for _, seed := range []string{"0\t1\n0\t0\n0\t1\n2\t5\n", "# c\n\n1\t2\n", "5\t0\n", "x\t0\n", "1\t-4\n1\t+4\n"} {
		f.Add([]byte(seed), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		types, err := ReadTypesTSV(bytes.NewReader(data), int(n))
		if err != nil {
			return
		}
		if len(types) != int(n) {
			t.Fatalf("%d type lists for %d entities", len(types), n)
		}
		for e, ts := range types {
			for i := 1; i < len(ts); i++ {
				if ts[i-1] >= ts[i] {
					t.Fatalf("entity %d: types %v are not sorted and duplicate-free", e, ts)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteTypesTSV(&buf, types); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTypesTSV(&buf, int(n))
		if err != nil {
			t.Fatalf("reading back what was written: %v", err)
		}
		for e := range types {
			if len(back[e]) != len(types[e]) || (len(back[e]) > 0 && !reflect.DeepEqual(back[e], types[e])) {
				t.Fatalf("entity %d: round trip = %v, want %v", e, back[e], types[e])
			}
		}
	})
}
