package eval

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

// pauseGC collects once and turns the collector off until the test ends. A
// collection empties the sync.Pool'd scratch a pass reuses, and the refills
// would read as the allocations of whatever the test measures.
func pauseGC(t *testing.T) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// RotatE's true-triple scores route through the scorer's scratch like every
// other model's batch scores, and the true-head id buffer lives in the
// worker's scratch: a RotatE pass makes no more allocations than a DistMult
// pass over the same plan (it used to make two to three per query). The two
// passes allocate the same scratch, so under -race, where sync.Pool drops a
// random share of what it is given, each model's count is the least of
// several measurements: the one where the pool kept its items.
func TestRotatEPassAllocatesNoMoreThanDistMult(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 30}
	opts := Options{Filter: filter, Seed: 4, Workers: 1}
	reps := 1
	if raceEnabled {
		reps = 12
	}
	pauseGC(t)
	allocs := map[string]float64{}
	for _, name := range []string{"DistMult", "RotatE"} {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		allocs[name] = math.Inf(1)
		for range reps {
			allocs[name] = min(allocs[name], testing.AllocsPerRun(3, func() { Evaluate(m, g, g.Test, prov, opts) }))
		}
	}
	if allocs["RotatE"] > allocs["DistMult"] {
		t.Errorf("a RotatE pass makes %.0f allocations, a DistMult pass %.0f", allocs["RotatE"], allocs["DistMult"])
	}
}

// Every service job is traced, so what tracing allocates is part of what a
// pass costs. Over the same pass untraced (69 allocations and 59 256 bytes on
// this graph at dim 16, n_s 30, one worker), a pass in a fresh trace, as a
// job starts one, allocates at most tracedAllocsPerChunk and
// tracedBytesPerChunk per eval.chunk span — the record, its ids and its
// attributes — plus tracedAllocsFixed and tracedBytesFixed: the trace, the
// pass-level spans and the growth of the trace's span ring. The pass has 9
// chunks; each per-chunk term is the slope over passes cut into 8 to 33
// (11 248 bytes more at 9 chunks, 37 488 at 33). The collector is paused: a
// collection during either measurement empties the pooled scratch, and the
// refills would read as tracing's.
func TestTracedPassAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a random share of the pass's pooled scratch")
	}
	const (
		tracedAllocsPerChunk, tracedAllocsFixed = 10, 57
		tracedBytesPerChunk, tracedBytesFixed   = 1100, 1500
	)
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 30}
	m, err := kgc.New("DistMult", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Filter: filter, Seed: 4, Workers: 1}
	Evaluate(m, g, g.Test, prov, opts) // the entity store is built once per model
	pauseGC(t)
	var root *trace.Span
	untracedPass := func() { Evaluate(m, g, g.Test, prov, opts) }
	tracedPass := func() {
		traced := opts
		traced.Ctx, root = trace.NewStore(0, 0).StartTrace(context.Background(), "job")
		Evaluate(m, g, g.Test, prov, traced)
	}
	untraced, traced := testing.AllocsPerRun(10, untracedPass), testing.AllocsPerRun(10, tracedPass)
	chunks := 0
	for _, s := range root.Recorder().Snapshot().Spans {
		if s.Name == "eval.chunk" {
			chunks++
		}
	}
	if chunks != 9 {
		t.Fatalf("the pass recorded %d eval.chunk spans; the budget is set for 9", chunks)
	}
	budget := float64(tracedAllocsPerChunk*chunks + tracedAllocsFixed)
	if extra := traced - untraced; extra > budget {
		t.Errorf("a traced pass makes %.0f allocations, %.0f more than untraced; budget %.0f for %d chunks", traced, extra, budget, chunks)
	}
	byteBudget := int64(tracedBytesPerChunk*chunks + tracedBytesFixed)
	untracedB, tracedB := passBytes(untracedPass), passBytes(tracedPass)
	if extra := tracedB - untracedB; extra > byteBudget {
		t.Errorf("a traced pass allocates %d bytes, %d more than untraced; budget %d for %d chunks", tracedB, extra, byteBudget, chunks)
	}
}

// passBytes is what one run of pass allocates, in bytes: the least of three
// means over ten warm runs, since TotalAlloc also counts any other goroutine
// still winding down from an earlier test.
func passBytes(pass func()) int64 {
	var least int64
	for k := 0; k < 3; k++ {
		pass()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 10; i++ {
			pass()
		}
		runtime.ReadMemStats(&m1)
		if b := int64(m1.TotalAlloc-m0.TotalAlloc) / 10; k == 0 || b < least {
			least = b
		}
	}
	return least
}

// Under the full protocol every pool is the whole entity set. A worker's
// candidate state is still one kernel tile — the table is transposed
// (vector lane), copied or dequantized a tile at a time — so the bytes a
// pass allocates stay far below one |E| × dim block, where the gather lane
// allocated one such block per worker.
func TestFullProtocolPassAllocatesTilesNotPools(t *testing.T) {
	// Keep the block's own buffers — 8 query rows of 512, 4096 scores — out
	// of the measurement's way.
	shrinkChunks(t, 8, 4096)

	const dim, workers = 512, 2
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m, err := kgc.New("DistMult", g, dim, 5)
	if err != nil {
		t.Fatal(err)
	}
	block := uint64(g.NumEntities * dim * 8)
	tile := kgc.TileFor(g.NumEntities, dim, store.Float64)
	for _, p := range []store.Precision{store.Float64, store.Int8} {
		opts := Options{Filter: filter, Seed: 4, Workers: workers, Precision: p}
		pass := func() { Evaluate(m, g, g.Test, NewFullProvider(g.NumEntities), opts) }
		pass() // the entity store is built once per model, not per pass
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pass()
		runtime.ReadMemStats(&m1)
		got := m1.TotalAlloc - m0.TotalAlloc
		// Per worker: one tile of rows, the chunk's query rows, the score
		// buffer; per pass: the ranks and the plan.
		if got > block/2 {
			t.Errorf("%v: a full-protocol pass allocated %d bytes; one %d×%d block is %d (tile %d×%d = %d)",
				p, got, g.NumEntities, dim, block, tile, dim, tile*dim*8)
		}
	}
}

// A Probabilistic plan allocates its pools at their exact size — 4 bytes per
// drawn id, where the heap sampler allocated 12 per slot of n_s whatever the
// column held — plus one sample.Scratch per draw worker: two float64 per
// entity of the longest column the worker met, times the slack of growing
// there geometrically. Nothing else scales with the pools or the workers.
// The budget holds where sync.Pool keeps its items, so not under -race.
func TestProbabilisticPlanAllocatesPoolsAndWorkerScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a random share of the draw's pooled scratch and streams")
	}
	ds, err := synth.Generate(synth.Config{
		Name: "alloc-test", NumEntities: 1000, NumRelations: 30, NumTypes: 10,
		NumTriples: 15000, ValidFrac: 0.05, TestFrac: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	prov := &ProbabilisticProvider{Scores: lwd.Scores(), N: 300}
	for _, workers := range []int{1, 2} {
		opts := Options{Seed: 4, Workers: workers}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := newPlan(g.Test, prov, opts)
		runtime.ReadMemStats(&m1)
		got := int(m1.TotalAlloc - m0.TotalAlloc)
		ids := 0
		for _, pool := range planPools(p) {
			ids += len(pool)
		}
		pools := 2 * len(p.groups)
		// Size classes round a pool up by at most an eighth; the plan's own
		// structure is the query index, the groups and the tasks.
		budget := ids*4*9/8 + pools*64 + len(g.Test)*16 + 8<<10 + workers*5*8*g.NumEntities
		if heap := ids * 12; budget >= heap {
			t.Fatalf("the budget (%d B) would pass the heap sampler (%d B): pick a graph with more pools", budget, heap)
		}
		if got > budget {
			t.Errorf("%d workers: newPlan allocated %d B for %d pools of %d ids in all; budget %d B", workers, got, pools, ids, budget)
		}
		t.Logf("%d workers: %d B allocated, %d B of pool ids, budget %d B", workers, got, ids*4, budget)
	}
}

// A pass whose plan is in the pool memo allocates no pool: on the benchmark
// of record's graph and window, a Probabilistic pass that hits allocates at
// least the pools' bytes less than the pass that drew them.
func TestMemoHitPassAllocatesNoPools(t *testing.T) {
	ds, err := synth.Generate(synth.WikiKG2Sim())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	m, err := kgc.New("DistMult", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	window := g.Test[:min(1024, len(g.Test))]
	opts := Options{Filter: kg.NewFilterIndex(g.Train, g.Valid, g.Test), Seed: 4, Workers: 1}
	bare := &ProbabilisticProvider{Scores: lwd.Scores(), N: g.NumEntities / 10}
	prov := NewPoolMemo(32<<20).Remember(bare, bare.N)
	Evaluate(m, g, window, bare, opts) // the model's entity store is built once
	pass := func() (uint64, Result) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := Evaluate(m, g, window, prov, opts)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, res
	}
	cold, drew := pass()
	hit, served := pass()
	ids := 0
	for _, pool := range planPools(newPlan(window, bare, opts)) {
		ids += len(pool)
	}
	if served.Metrics != drew.Metrics {
		t.Fatalf("hit pass %+v, cold pass %+v", served.Metrics, drew.Metrics)
	}
	if uint64(ids*4)+hit > cold {
		t.Errorf("a hit pass allocated %d B, the cold pass %d B: not %d B of pool ids less", hit, cold, ids*4)
	}
	t.Logf("cold %d B, hit %d B, pools %d B", cold, hit, ids*4)
}
