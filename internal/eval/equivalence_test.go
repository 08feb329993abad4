package eval

import (
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
)

// equivalenceProviders returns one provider per sampling strategy, all
// backed by the same fitted recommender.
func equivalenceProviders(t *testing.T, g *kg.Graph) map[string]CandidateProvider {
	t.Helper()
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	sets := recommender.BuildStatic(lwd.Scores(), g, recommender.DefaultStaticOpts())
	return map[string]CandidateProvider{
		"Full":          NewFullProvider(g.NumEntities),
		"Random":        &RandomProvider{NumEntities: g.NumEntities, N: 30},
		"Static":        &StaticProvider{Sets: sets, N: 30},
		"Probabilistic": &ProbabilisticProvider{Scores: lwd.Scores(), N: 30},
	}
}

// The relation-grouped batch executor is an execution strategy, not a
// different protocol: for every model architecture and every sampling
// strategy it must produce exactly the Metrics and the candidate count of
// the naive oracle (oracle_test.go).
func TestExecutorMatchesOracleAllModelsAllStrategies(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	providers := equivalenceProviders(t, g)

	for _, name := range kgc.ModelNames() {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		for pname, p := range providers {
			checkAgainstOracle(t, name+"/"+pname, m, m, g, g.Test, p, Options{Filter: filter, Seed: 9, Workers: 4})
		}
	}
}

// shrinkChunks runs the rest of the test with blocks of at most queries
// directed queries and a score buffer of budget floats, so that a full block
// is swept in strips of budget/queries candidates: every pool of the small
// test graphs takes several strips, as a pool of a million entities does
// under the real parameters.
func shrinkChunks(t *testing.T, queries, budget int) {
	oldQ, oldB := maxBatchQueries, batchFloatBudget
	maxBatchQueries, batchFloatBudget = queries, budget
	t.Cleanup(func() { maxBatchQueries, batchFloatBudget = oldQ, oldB })
}

// A pool longer than one strip is scored and ranked strip by strip, with the
// rank counters and the known-positive cursor carried across strip edges:
// with strips of four candidates under blocks of six queries (longer ones
// under the shorter blocks that end a relation) the answers and known
// positives of the test graph fall on both sides of, and right at, those
// edges. Every model, on every strategy, must still rank exactly as the
// oracle does.
func TestMultiStripPoolsMatchOracle(t *testing.T) {
	shrinkChunks(t, 6, 24)
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	providers := equivalenceProviders(t, g)
	for _, name := range kgc.ModelNames() {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		for pname, p := range providers {
			opts := Options{Filter: filter, Seed: 9, Workers: 2}
			pl := newPlan(g.Test, p, opts)
			for _, task := range pl.tasks {
				gr := &pl.groups[task.group]
				nq, pool := task.triples, min(len(gr.tailPool), len(gr.headPool))
				if samePool(gr.tailPool, gr.headPool) {
					nq *= 2
				}
				if nq > maxBatchQueries || (nq == maxBatchQueries && pool < 3*batchFloatBudget/nq) {
					t.Fatalf("%s: a block of %d queries over a pool of %d: want at most %d, swept in several strips of %d",
						pname, nq, pool, maxBatchQueries, batchFloatBudget/nq)
				}
			}
			checkAgainstOracle(t, name+"/"+pname+"/strips", m, m, g, g.Test, p, opts)
		}
	}
}

// MaxQueries subsampling must rank exactly the queries the seed selects.
func TestMaxQueriesMatchesOracle(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	m, err := kgc.New("ComplEx", g, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := &RandomProvider{NumEntities: g.NumEntities, N: 40}
	ranks := checkAgainstOracle(t, "MaxQueries", m, m, g, g.Test, p, Options{Filter: filter, Seed: 2, MaxQueries: 31})
	if len(ranks) != 2*31 {
		t.Fatalf("oracle ranked %d queries, want %d", len(ranks), 2*31)
	}
}

// EvaluateMany over a shared plan must reproduce the per-model Evaluate
// results exactly: same pools, same scores, same metrics.
func TestEvaluateManyMatchesIndividualEvaluate(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	var ms []kgc.Model
	for _, name := range []string{"TransE", "DistMult", "ComplEx", "TuckER"} {
		m, err := kgc.New(name, g, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	p := &RandomProvider{NumEntities: g.NumEntities, N: 30}
	opts := Options{Filter: filter, Seed: 3}
	many := EvaluateMany(ms, g, g.Test, p, opts)
	if len(many) != len(ms) {
		t.Fatalf("EvaluateMany returned %d results, want %d", len(many), len(ms))
	}
	for i, m := range ms {
		one := Evaluate(m, g, g.Test, p, opts)
		if many[i].Metrics != one.Metrics {
			t.Errorf("%s: EvaluateMany %+v != Evaluate %+v", m.Name(), many[i].Metrics, one.Metrics)
		}
	}
}

// The multi-model Progress hook counts triples across the whole fleet.
func TestEvaluateManyProgressSpansModels(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	ms := []kgc.Model{formulaModel{}, formulaModel{}, formulaModel{}}
	var maxDone, total int
	opts := Options{
		Filter: filter, Seed: 1, Workers: 2,
		Progress: func(d, tot int) {
			if d > maxDone {
				maxDone = d
			}
			total = tot
		},
	}
	// Workers: 2 but the hook races only if called concurrently with itself;
	// guard by using a single worker for the assertion run.
	opts.Workers = 1
	EvaluateMany(ms, g, g.Test, &RandomProvider{NumEntities: g.NumEntities, N: 20}, opts)
	want := 3 * len(g.Test)
	if maxDone != want || total != want {
		t.Fatalf("progress reached %d/%d, want %d/%d", maxDone, total, want, want)
	}
}
