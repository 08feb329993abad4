package eval

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// TestStageTimingsPopulated checks that a pass reports a non-trivial stage
// breakdown: pool draws and scoring always happen, and the stage sums are
// consistent with having done the work at all.
func TestStageTimingsPopulated(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 20}
	res := Evaluate(formulaModel{}, g, g.Test, prov, Options{Filter: filter, Seed: 3, Workers: 2})

	st := res.Stages
	if st.PoolDraw <= 0 {
		t.Fatalf("PoolDraw = %v, want > 0 (2·|R| draws happened)", st.PoolDraw)
	}
	if st.Score <= 0 {
		t.Fatalf("Score = %v, want > 0", st.Score)
	}
	if st.RankMerge <= 0 {
		t.Fatalf("RankMerge = %v, want > 0", st.RankMerge)
	}
	if st.PlanCompile < 0 {
		t.Fatalf("PlanCompile = %v, want >= 0", st.PlanCompile)
	}
	// Serial stages are wall-clock components of Elapsed.
	if st.PlanCompile+st.PoolDraw > res.Elapsed {
		t.Fatalf("setup stages (%v + %v) exceed Elapsed %v", st.PlanCompile, st.PoolDraw, res.Elapsed)
	}
}

// TestStageTimingsSharedAcrossMany checks that EvaluateMany attributes the
// one-time plan cost identically to every model while scoring time is per
// model.
func TestStageTimingsSharedAcrossMany(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 20}
	results := EvaluateMany([]kgc.Model{formulaModel{}, formulaModel{}}, g, g.Test, prov,
		Options{Filter: filter, Seed: 3, Workers: 2})
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	a, b := results[0].Stages, results[1].Stages
	if a.PlanCompile != b.PlanCompile || a.PoolDraw != b.PoolDraw {
		t.Fatalf("shared plan stages differ across models: %+v vs %+v", a, b)
	}
	for i, r := range results {
		if r.Stages.Score <= 0 {
			t.Fatalf("model %d: Score = %v, want > 0", i, r.Stages.Score)
		}
	}
}

// slowProvider delays every pool draw.
type slowProvider struct {
	CandidateProvider
	delay time.Duration
}

func (p slowProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	time.Sleep(p.delay)
	return p.CandidateProvider.Candidates(r, tail, rng)
}

// kgeval_eval_pass_seconds has one definition from either entry point: the
// model's scoring pass. A provider that is slow to draw pools must show up
// in stage_seconds{stage="pool_draw"} (and in Evaluate's Elapsed) and leave
// pass_seconds alone — Evaluate used to observe its plan-inclusive Elapsed
// into the histogram EvaluateMany fed with scoring-only times.
func TestPassSecondsCoversScoringOnly(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	const delay = 10 * time.Millisecond
	prov := slowProvider{&RandomProvider{NumEntities: g.NumEntities, N: 20}, delay}
	rels := map[int32]bool{}
	for _, q := range g.Test {
		rels[q.R] = true
	}
	slept := (time.Duration(2*len(rels)) * delay).Seconds()

	poolBefore := instruments.stagePool.Snapshot()
	passBefore := instruments.passSeconds.Snapshot()
	res := Evaluate(formulaModel{}, g, g.Test, prov, Options{Filter: filter, Seed: 3, Workers: 2})
	pool := instruments.stagePool.Snapshot().Sum - poolBefore.Sum
	pass := instruments.passSeconds.Snapshot()

	if pool < slept {
		t.Errorf("pool_draw stage moved by %.3fs, the draws slept %.3fs", pool, slept)
	}
	if n := pass.Count - passBefore.Count; n != 1 {
		t.Fatalf("pass_seconds took %d observations for one pass", n)
	}
	if d := pass.Sum - passBefore.Sum; d >= slept {
		t.Errorf("pass_seconds moved by %.3fs: it includes the %.3fs pool draw", d, slept)
	}
	if res.Elapsed.Seconds() < slept {
		t.Errorf("Evaluate's Elapsed %v excludes the %.3fs pool draw", res.Elapsed, slept)
	}
}

// A plan served from the pool memo must not read as a draw anywhere: the
// pool_draw histogram takes the real draw only, pool_plans_total says which
// plan was which, and the hit's Stages.PoolDraw is the lookup, not the draws
// the first plan slept through.
func TestMemoHitIsNotObservedAsADraw(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	const delay = 5 * time.Millisecond
	prov := NewPoolMemo(1<<20).Remember(
		slowProvider{&RandomProvider{NumEntities: g.NumEntities, N: 20}, delay}, 20)
	opts := Options{Filter: filter, Seed: 3, Workers: 2}

	draws, hits, misses := instruments.stagePool.Snapshot().Count, instruments.poolPlansHit.Value(), instruments.poolPlansMiss.Value()
	drew := Evaluate(formulaModel{}, g, g.Test, prov, opts)
	served := Evaluate(formulaModel{}, g, g.Test, prov, opts)
	if d, h, m := instruments.stagePool.Snapshot().Count-draws, instruments.poolPlansHit.Value()-hits, instruments.poolPlansMiss.Value()-misses; d != 1 || h != 1 || m != 1 {
		t.Errorf("a draw and a hit: pool_draw took %d observations, pool_plans_total moved by hit %d, miss %d; want 1 of each", d, h, m)
	}
	if drew.Stages.PoolDraw < 2*delay || served.Stages.PoolDraw >= delay {
		t.Errorf("PoolDraw = %v for the draw and %v for the hit; each pool's draw slept %v", drew.Stages.PoolDraw, served.Stages.PoolDraw, delay)
	}
	if served.Metrics != drew.Metrics || served.CandidatesScored != drew.CandidatesScored {
		t.Errorf("hit %+v, draw %+v", served.Metrics, drew.Metrics)
	}
}

// TestParallelEvalHammersCounters runs several concurrent multi-worker
// passes and checks the process-wide obs counters advanced by exactly the
// work performed — the race-mode guarantee that per-worker atomic counting
// loses nothing. Run under -race in CI.
func TestParallelEvalHammersCounters(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 15}

	passesBefore := instruments.passesTotal.Value()
	queriesBefore := instruments.queriesTotal.Value()
	candidatesBefore := instruments.candidatesTotal.Value()

	const passes = 8
	var wg sync.WaitGroup
	results := make([]Result, passes)
	for i := 0; i < passes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Evaluate(formulaModel{}, g, g.Test, prov,
				Options{Filter: filter, Seed: int64(i), Workers: 4})
		}(i)
	}
	wg.Wait()

	var wantQueries, wantCandidates int64
	for _, r := range results {
		wantQueries += int64(r.Queries)
		wantCandidates += r.CandidatesScored
	}
	if got := instruments.passesTotal.Value() - passesBefore; got != passes {
		t.Fatalf("passes counter advanced by %d, want %d", got, passes)
	}
	if got := instruments.queriesTotal.Value() - queriesBefore; got != wantQueries {
		t.Fatalf("queries counter advanced by %d, want %d", got, wantQueries)
	}
	if got := instruments.candidatesTotal.Value() - candidatesBefore; got != wantCandidates {
		t.Fatalf("candidates counter advanced by %d, want %d", got, wantCandidates)
	}
	if snap := instruments.stageScore.Snapshot(); snap.Count < passes {
		t.Fatalf("score stage histogram has %d observations, want >= %d", snap.Count, passes)
	}
}
