package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
)

// countingRec wraps a recommender and counts Scores() calls. The framework
// reads the scores once per static-set build and once per Probabilistic
// provider, which is what lets the tests below count builds from outside.
type countingRec struct {
	recommender.Recommender
	scoresCalls atomic.Int64
}

func (c *countingRec) Scores() *recommender.ScoreMatrix {
	c.scoresCalls.Add(1)
	return c.Recommender.Scores()
}

// Sets returns the discretized candidate sets the way a Static provider
// gets them: built on the first request since Fit, nil before Fit.
func (f *Framework) Sets() *recommender.CandidateSets {
	return f.staticSets(context.Background())
}

func TestStaticSetsBuiltOnceOnFirstNeed(t *testing.T) {
	g, _ := coreGraph(t)
	rec := &countingRec{Recommender: recommender.NewLWD()}
	fw := New(rec, 40, 17)
	if fw.Sets() != nil {
		t.Fatal("Sets() before Fit must be nil")
	}
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	if fw.sets != nil || rec.scoresCalls.Load() != 0 {
		t.Fatal("Fit discretized the scores; the static sets must wait for their first user")
	}

	var wg sync.WaitGroup
	var providers [16]eval.CandidateProvider
	for i := range providers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			providers[i] = fw.Provider(StrategyStatic)
		}()
	}
	wg.Wait()
	if n := rec.scoresCalls.Load(); n != 1 {
		t.Fatalf("16 concurrent Static providers read the scores %d times, want one build", n)
	}
	sets := fw.Sets()
	if sets == nil || len(sets.Sets) != 2*g.NumRelations {
		t.Fatalf("Sets() after the build = %v", sets)
	}
	for i, p := range providers {
		if p.(*eval.StaticProvider).Sets != sets {
			t.Fatalf("provider %d holds a different CandidateSets than Sets()", i)
		}
	}
	if n := rec.scoresCalls.Load(); n != 1 {
		t.Fatalf("Sets() after the build read the scores again (%d calls)", n)
	}
}

func TestProbabilisticAndRandomNeverBuildStaticSets(t *testing.T) {
	g, _ := coreGraph(t)
	fw := New(recommender.NewLWD(), 40, 17)
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	m := kgc.NewDistMult(g, 8, 3)
	opts := eval.Options{Filter: kg.NewFilterIndex(g.Train, g.Valid, g.Test), MaxQueries: 50}
	fw.Provider(StrategyProbabilistic)
	fw.Provider(StrategyRandom)
	fw.Estimate(m, g, g.Test, StrategyProbabilistic, opts)
	fw.EstimateMany([]kgc.Model{m}, g, g.Test, StrategyRandom, opts)
	if fw.sets != nil {
		t.Fatal("a Probabilistic/Random-only user paid for the static sets")
	}
}

func TestRefitOnAnotherGraphRebuildsStaticSets(t *testing.T) {
	g1, _ := coreGraph(t)
	g2, _ := coreGraph(t)
	g2.Train = g2.Train[:len(g2.Train)/2] // a second graph with different scores
	fw := New(recommender.NewLWD(), 40, 17)
	if err := fw.Fit(g1); err != nil {
		t.Fatal(err)
	}
	first := fw.Sets()
	if err := fw.Fit(g1); err != nil {
		t.Fatal(err)
	}
	if fw.Sets() != first {
		t.Fatal("re-Fit on the same graph dropped the static sets")
	}
	if err := fw.Fit(g2); err != nil {
		t.Fatal(err)
	}
	if fw.sets != nil {
		t.Fatal("Fit on a second graph kept the first graph's static sets")
	}
	second := fw.Sets()
	want := recommender.BuildStatic(fw.Rec.Scores(), g2, recommender.DefaultStaticOpts())
	if second == first || len(second.Sets) != len(want.Sets) {
		t.Fatal("static sets were not rebuilt for the second graph")
	}
	for col := range want.Sets {
		if len(second.Sets[col]) != len(want.Sets[col]) || second.Thresholds[col] != want.Thresholds[col] {
			t.Fatalf("column %d: rebuilt sets do not match the second graph's scores", col)
		}
	}
}

// TestOnDemandBuildIsTraced checks who a trace says paid: framework.fit holds
// the recommender's Fit as a child and no discretization; the first Static
// estimate's trace carries framework.build_static, the second does not.
func TestOnDemandBuildIsTraced(t *testing.T) {
	g, _ := coreGraph(t)
	m := kgc.NewDistMult(g, 8, 3)
	opts := eval.Options{Filter: kg.NewFilterIndex(g.Train, g.Valid, g.Test), MaxQueries: 50}
	store := trace.NewStore(0, 4096)
	spans := func(name string, run func(ctx context.Context)) map[string][]trace.SpanRecord {
		ctx, root := store.StartTrace(context.Background(), name)
		run(ctx)
		root.End()
		byName := map[string][]trace.SpanRecord{}
		for _, s := range root.Recorder().Snapshot().Spans {
			byName[s.Name] = append(byName[s.Name], s)
		}
		return byName
	}

	fw := New(recommender.NewLWD(), 40, 17)
	fit := spans("fit", func(ctx context.Context) {
		if err := fw.FitCtx(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	if len(fit["framework.fit"]) != 1 || len(fit["recommender.fit"]) != 1 {
		t.Fatalf("fit trace has %d framework.fit and %d recommender.fit spans, want 1 and 1",
			len(fit["framework.fit"]), len(fit["recommender.fit"]))
	}
	if fit["recommender.fit"][0].Parent != fit["framework.fit"][0].SpanID {
		t.Fatal("recommender.fit is not a child of framework.fit")
	}
	if len(fit["framework.build_static"]) != 0 {
		t.Fatal("Fit recorded a static-set build")
	}

	estimate := func(s Strategy) func(ctx context.Context) {
		return func(ctx context.Context) {
			o := opts
			o.Ctx = ctx
			fw.Estimate(m, g, g.Test, s, o)
		}
	}
	if got := spans("p-job", estimate(StrategyProbabilistic)); len(got["framework.build_static"]) != 0 {
		t.Fatal("a Probabilistic estimate recorded a static-set build")
	}
	first := spans("first-s-job", estimate(StrategyStatic))
	if len(first["framework.build_static"]) != 1 {
		t.Fatalf("first Static estimate recorded %d build spans, want 1", len(first["framework.build_static"]))
	}
	build := first["framework.build_static"][0]
	if build.Parent != first["first-s-job"][0].SpanID {
		t.Fatal("framework.build_static is not a child of the job that needed it")
	}
	if cols, _ := build.Attr("columns").(int); cols != 2*g.NumRelations {
		t.Fatalf("build span columns = %v, want %d", build.Attr("columns"), 2*g.NumRelations)
	}
	if nnz, _ := build.Attr("nnz").(int); nnz != fw.Rec.Scores().NNZ() {
		t.Fatalf("build span nnz = %v, want %d", build.Attr("nnz"), fw.Rec.Scores().NNZ())
	}
	if w, _ := build.Attr("workers").(int); w < 1 {
		t.Fatalf("build span workers = %v", build.Attr("workers"))
	}
	if second := spans("second-s-job", estimate(StrategyStatic)); len(second["framework.build_static"]) != 0 {
		t.Fatal("second Static estimate rebuilt the sets")
	}
}
