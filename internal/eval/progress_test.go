package eval

import (
	"context"
	"sync"
	"testing"

	"kgeval/internal/kg"
)

func TestEvaluateProgressHook(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)

	var mu sync.Mutex
	var calls int
	maxDone := 0
	opts := Options{
		Filter:  filter,
		Workers: 3,
		Seed:    7,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > maxDone {
				maxDone = done
			}
			if total != len(g.Test) {
				t.Errorf("Progress total = %d, want %d", total, len(g.Test))
			}
		},
	}
	res := Evaluate(formulaModel{}, g, g.Test, &RandomProvider{NumEntities: g.NumEntities, N: 30}, opts)

	if calls != len(g.Test) {
		t.Fatalf("Progress called %d times, want %d", calls, len(g.Test))
	}
	if maxDone != len(g.Test) {
		t.Fatalf("max Progress done = %d, want %d", maxDone, len(g.Test))
	}
	if res.Queries != 2*len(g.Test) {
		t.Fatalf("Queries = %d, want %d", res.Queries, 2*len(g.Test))
	}

	// The hook must not perturb the metrics: same seed, no hook.
	plain := Evaluate(formulaModel{}, g, g.Test, &RandomProvider{NumEntities: g.NumEntities, N: 30}, Options{Filter: filter, Workers: 1, Seed: 7})
	if plain.MRR != res.MRR || plain.CandidatesScored != res.CandidatesScored {
		t.Fatalf("hooked run diverged: MRR %v vs %v, scored %d vs %d",
			res.MRR, plain.MRR, res.CandidatesScored, plain.CandidatesScored)
	}
}

func TestEvaluateCancellation(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no query should run
	res := Evaluate(formulaModel{}, g, g.Test, &RandomProvider{NumEntities: g.NumEntities, N: 30},
		Options{Filter: filter, Workers: 2, Seed: 7, Ctx: ctx})
	if res.Queries != 0 {
		t.Fatalf("pre-cancelled evaluation processed %d queries, want 0", res.Queries)
	}
	if res.MRR != 0 || res.CandidatesScored != 0 {
		t.Fatalf("pre-cancelled evaluation produced MRR=%v scored=%d", res.MRR, res.CandidatesScored)
	}

	// Cancel mid-pass from the progress hook: the pass must stop early and
	// report metrics over a partial prefix only.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	opts := Options{
		Filter: filter, Workers: 1, Seed: 7, Ctx: ctx2,
		Progress: func(done, total int) {
			if done >= 5 {
				cancel2()
			}
		},
	}
	partial := Evaluate(formulaModel{}, g, g.Test, &RandomProvider{NumEntities: g.NumEntities, N: 30}, opts)
	if partial.Queries == 0 {
		t.Fatal("mid-pass cancellation processed no queries")
	}
	if partial.Queries >= 2*len(g.Test) {
		t.Fatalf("mid-pass cancellation processed all %d queries", partial.Queries)
	}
	if partial.MRR <= 0 || partial.MRR > 1 {
		t.Fatalf("partial MRR = %v out of (0,1]", partial.MRR)
	}
}

// Under the full protocol a task mixes relations and both directions in one
// block. Progress still reports every triple exactly once, in order when one
// worker runs, against the same total.
func TestProgressOverMixedBlocks(t *testing.T) {
	shrinkChunks(t, 8, 32) // 75 strips per block: nothing is reported per strip
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	var seen []int
	Evaluate(formulaModel{}, g, g.Test, NewFullProvider(g.NumEntities), Options{
		Filter: filter, Workers: 1, Seed: 7,
		Progress: func(done, total int) {
			if total != len(g.Test) {
				t.Errorf("Progress total = %d, want %d", total, len(g.Test))
			}
			seen = append(seen, done)
		},
	})
	if len(seen) != len(g.Test) {
		t.Fatalf("Progress called %d times, want %d", len(seen), len(g.Test))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("Progress call %d reported %d", i+1, d)
		}
	}
}

// cancelAfter is formulaModel that cancels a context on its n-th pool scoring.
type cancelAfter struct {
	formulaModel
	calls  *int
	n      int
	cancel context.CancelFunc
}

func (m cancelAfter) ScoreTails(h, r int32, cands []int32, out []float64) {
	if *m.calls++; *m.calls == m.n {
		m.cancel()
	}
	m.formulaModel.ScoreTails(h, r, cands, out)
}

// Cancellation takes effect between two strips of a sweep, not only between
// tasks. The block caught mid-sweep writes no rank — its queries stay at rank
// 0 and out of the metrics, its triples unreported — while the strips it did
// score are counted; what was ranked before it is a valid partial Result.
func TestCancelMidSweep(t *testing.T) {
	old := batchFloatBudget
	batchFloatBudget = 64 // blocks of 32 triples, both directions, in strips of one candidate
	defer func() { batchFloatBudget = old }()
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One tail scoring per triple per strip: the first block takes 32 × |E|
	// of them, so this lands a third of the way through the second block.
	calls := 0
	m := cancelAfter{calls: &calls, n: 32*g.NumEntities + 32*g.NumEntities/3, cancel: cancel}
	reported := 0
	res := Evaluate(m, g, g.Test, NewFullProvider(g.NumEntities), Options{
		Filter: filter, Workers: 1, Seed: 7, Ctx: ctx,
		Progress: func(done, total int) { reported++ },
	})
	if reported != 32 || res.Queries != 2*32 {
		t.Fatalf("ranked %d queries and reported %d triples, want the first block's 64 and 32", res.Queries, reported)
	}
	whole := int64(2 * 32 * g.NumEntities)
	if res.CandidatesScored <= whole || res.CandidatesScored >= 2*whole {
		t.Fatalf("scored %d candidates, want one block's %d and part of a second", res.CandidatesScored, whole)
	}
	want := Evaluate(formulaModel{}, g, g.Test, NewFullProvider(g.NumEntities), Options{Filter: filter, Workers: 1, Seed: 7})
	if res.MRR <= 0 || res.MRR > 1 || res.Metrics == want.Metrics {
		t.Fatalf("partial metrics %+v (the whole pass: %+v)", res.Metrics, want.Metrics)
	}
}
