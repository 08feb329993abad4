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

// A pool larger than the whole score-buffer budget runs one query per
// task: the chunk-of-one still goes through the batch kernels and must
// still rank exactly as the oracle does. Shrinking the budget forces that
// regime (what a >65k-entity graph sees under the full protocol) on a small
// graph.
func TestOneQueryChunksMatchOracle(t *testing.T) {
	old := batchFloatBudget
	batchFloatBudget = 16 // pools of 30 and |E| both exceed it
	defer func() { batchFloatBudget = old }()

	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	providers := map[string]CandidateProvider{
		"Random": &RandomProvider{NumEntities: g.NumEntities, N: 30},
		"Full":   NewFullProvider(g.NumEntities),
	}
	for _, name := range []string{"TransE", "DistMult", "RotatE", "ConvE"} {
		m, err := kgc.New(name, g, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		for pname, p := range providers {
			queries := subsample(g.Test, Options{})
			if pl := newPlan(queries, p, Options{Seed: 9}); len(pl.tasks) != len(queries) {
				t.Fatalf("%s: %d tasks for %d queries, want one query per task", pname, len(pl.tasks), len(queries))
			}
			checkAgainstOracle(t, name+"/"+pname+"/one-query chunks", m, m, g, g.Test, p, Options{Filter: filter, Seed: 9, Workers: 2})
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
