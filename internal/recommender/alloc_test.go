package recommender

import (
	"runtime"
	"testing"

	"kgeval/internal/synth"
)

// allocated returns the bytes fn allocates, at two workers whatever the
// machine has: per-worker scratch is part of what is pinned.
func allocated(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// The score matrix exists once. A Fit whose product is the score matrix
// allocates that matrix — 12 bytes a nonzero plus its row pointers — and,
// next to it, only operands a fraction its size (B, Bᵀ, T, Tᵀ, W, Wᵀ, the
// type counts, each product worker's accumulator): a second copy in another
// orientation, which is what Fit used to build (41 MB and 38 MB against
// 17.3 MB and 15.6 MB on this graph), does not fit under the limit.
func TestFitAllocatesOneScoreMatrix(t *testing.T) {
	g := generate(t, synth.WikiKG2Sim())
	for _, name := range []string{"L-WD", "L-WD-T", "DBH-T", "OntoSim"} {
		rec, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := allocated(func() { err = rec.Fit(g) })
		if err != nil {
			t.Fatal(err)
		}
		matrix := uint64(12*rec.Scores().NNZ() + 8*(2*g.NumRelations+1))
		if got > matrix*3/2 {
			t.Errorf("%s: Fit allocated %d bytes; one column-major score matrix is %d", name, got, matrix)
		}
	}
}

// A BuildStatic on the graph its matrix was fitted on allocates its sets at
// their exact size and one scratch buffer per worker of four words per
// entity of the longest column. The train-observed members it measures
// recall against are the Bᵀ Fit kept, not built again; nothing else scales
// with the matrix.
func TestBuildStaticAllocatesSetsAndWorkerScratch(t *testing.T) {
	g := generate(t, synth.WikiKG2Sim())
	rec := NewLWD()
	if err := rec.Fit(g); err != nil {
		t.Fatal(err)
	}
	var cs *CandidateSets
	got := allocated(func() { cs = BuildStatic(rec.Scores(), g, DefaultStaticOpts()) })
	numCols := 2 * g.NumRelations
	sets, longest := 0, 0
	for col, set := range cs.Sets {
		sets += 4 * len(set)
		ids, _ := rec.Scores().Column(col)
		longest = max(longest, len(ids))
	}
	scratch := 2 * 4 * 8 * longest
	headers := (24 + 8) * numCols // Sets and Thresholds
	if limit := uint64(sets+scratch+headers) * 11 / 10; got > limit {
		t.Errorf("BuildStatic allocated %d bytes; sets %d + two workers' scratch %d + headers %d allow %d",
			got, sets, scratch, headers, limit)
	}
}
