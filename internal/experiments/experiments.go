// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic dataset suite. Each experiment is
// addressable by the paper's artifact id (table2 … table15, fig3a … fig6,
// thm1, ext1, ext2); experimentTable lists them in the paper's order, and
// Run, RunAll and ExperimentIDs all read that one list. cmd/benchtables runs
// them from the command line and bench_test.go benchmarks each.
//
// Experiments come in two scales: ScaleFull reproduces the shapes with the
// full synthetic suite (minutes), ScaleQuick shrinks datasets, model counts
// and epochs so that benchmarks finish in seconds while exercising the same
// code paths. Everything a scale decides is one entry of sizes.
//
// A Runner caches what experiments share: each preset's graph and filter
// index, fitted recommenders, each correlation suite's training runs and the
// models trained outside a suite. A cache holds the same value whichever
// experiment fills it first, so an experiment prints the same cells alone, in
// RunAll, or after any other experiment on the same Runner.
package experiments

import (
	"fmt"
	"io"
	"slices"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleQuick shrinks datasets and epochs for fast benchmark runs.
	ScaleQuick Scale = iota
	// ScaleFull runs the full synthetic suite.
	ScaleFull
)

// size is everything a Scale decides.
type size struct {
	shrink         bool      // generate each preset at about an eighth of its size
	suiteDatasets  []string  // the rows of Tables 6–9 and 12–15
	suiteModels    int       // cap on a suite's models (0: the paper's selection)
	epochs         int       // training epochs of every model
	sweepFractions []float64 // Figures 3a, 3b and 6: n_s as fractions of |E|
	fig4Datasets   []string
	fig4Fractions  []float64
	fig4Repeats    int
	ext1Datasets   []string
	ext2Dataset    string
}

var sizes = [...]size{
	ScaleQuick: {
		shrink:         true,
		suiteDatasets:  []string{"codexs-sim", "codexm-sim"},
		suiteModels:    3,
		epochs:         4,
		sweepFractions: []float64{0.02, 0.1, 0.3},
		fig4Datasets:   []string{"codexs-sim"},
		fig4Fractions:  []float64{0.05, 0.3},
		fig4Repeats:    2,
		ext1Datasets:   []string{"codexs-sim"},
		ext2Dataset:    "codexs-sim",
	},
	ScaleFull: {
		suiteDatasets: []string{
			"fb15k237-sim", "fb15k-sim", "codexs-sim", "codexm-sim",
			"codexl-sim", "yago310-sim", "wikikg2-sim",
		},
		epochs:         10,
		sweepFractions: []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4},
		fig4Datasets:   []string{"fb15k-sim", "codexm-sim", "yago310-sim", "fb15k237-sim", "codexs-sim", "codexl-sim"},
		fig4Fractions:  []float64{0.01, 0.05, 0.1, 0.2, 0.3},
		fig4Repeats:    5,
		ext1Datasets:   []string{"codexs-sim", "codexm-sim"},
		ext2Dataset:    "codexm-sim",
	},
}

// Runner executes experiments, caching their shared inputs so tables that
// share them do not recompute them.
type Runner struct {
	Scale Scale
	W     io.Writer

	inputs    map[string]*input
	recs      map[string]recommender.Recommender // key: dataset/recname
	suites    map[string][]modelRun
	models    map[string]kgc.Model // trained outside a suite; key: dataset/model
	sweep     []sweepRow           // cached Figure 3/6 sample-size sweep
	sweepFull eval.Result
}

// NewRunner builds a Runner writing experiment output to w.
func NewRunner(scale Scale, w io.Writer) *Runner {
	return &Runner{
		Scale:  scale,
		W:      w,
		inputs: map[string]*input{},
		recs:   map[string]recommender.Recommender{},
		suites: map[string][]modelRun{},
		models: map[string]kgc.Model{},
	}
}

func (r *Runner) size() *size { return &sizes[r.Scale] }

// experimentTable lists every experiment in the paper's presentation order.
var experimentTable = []struct {
	id  string
	run func(*Runner) error
}{
	{"table2", (*Runner).table2},
	{"table3", (*Runner).table3},
	{"table4", (*Runner).table4},
	{"table5", (*Runner).table5},
	{"table6", (*Runner).table6},
	{"table7", (*Runner).table7},
	{"table8", (*Runner).table8},
	{"table9", (*Runner).table9},
	{"table12", func(r *Runner) error { return r.hitsCorrelation(3, "Table 12") }},
	{"table13", func(r *Runner) error { return r.hitsCorrelation(10, "Table 13") }},
	{"table14", func(r *Runner) error { return r.hitsCorrelation(1, "Table 14") }},
	{"table15", (*Runner).table15},
	{"fig3a", (*Runner).fig3a},
	{"fig3b", (*Runner).fig3b},
	{"fig3c", (*Runner).fig3c},
	{"fig4", (*Runner).fig4},
	{"fig6", (*Runner).fig6},
	{"thm1", (*Runner).thm1},
	{"ext1", (*Runner).extClassification},
	{"ext2", (*Runner).extNoisyTypes},
}

// ExperimentIDs lists every regenerable artifact in order.
func ExperimentIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) error {
	for _, e := range experimentTable {
		if e.id == id {
			return e.run(r)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ExperimentIDs())
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() error {
	for _, e := range experimentTable {
		if err := e.run(r); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return nil
}

// input is a generated preset and its train+valid+test filter index.
type input struct {
	g      *kg.Graph
	filter *kg.FilterIndex
}

// ground generates (or returns cached) a preset, shrunk at quick scale.
func (r *Runner) ground(name string) (*input, error) {
	if in, ok := r.inputs[name]; ok {
		return in, nil
	}
	cfg, ok := synth.PresetByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	if r.size().shrink {
		cfg = shrink(cfg)
	}
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	in := &input{g: g, filter: kg.NewFilterIndex(g.Train, g.Valid, g.Test)}
	r.inputs[name] = in
	return in, nil
}

// shrink reduces a preset for quick-scale runs while keeping its shape.
func shrink(cfg synth.Config) synth.Config {
	cfg.NumEntities = max(200, cfg.NumEntities/8)
	cfg.NumTriples = max(2000, cfg.NumTriples/8)
	cfg.NumRelations = max(6, cfg.NumRelations/2)
	cfg.NumTypes = max(6, cfg.NumTypes/2)
	return cfg
}

// recommenderFor fits (or returns cached) a recommender on a dataset.
func (r *Runner) recommenderFor(dataset, recName string) (recommender.Recommender, error) {
	key := dataset + "/" + recName
	if rec, ok := r.recs[key]; ok {
		return rec, nil
	}
	in, err := r.ground(dataset)
	if err != nil {
		return nil, err
	}
	rec, err := recommender.ByName(recName, recommenderSeed)
	if err != nil {
		return nil, err
	}
	if err := rec.Fit(in.g); err != nil {
		return nil, err
	}
	r.recs[key] = rec
	return rec, nil
}

// recommenderSeed seeds the recommenders with learned parameters (PIE).
const recommenderSeed = 7

// recommenderNames is Table 5's method order.
var recommenderNames = []string{"PT", "DBH-T", "OntoSim", "PIE", "L-WD", "L-WD-T"}

// trainedModel returns the dataset's final trained model of the given name:
// the suite's when the suite trains that model, otherwise one trained on
// demand and cached beside the suite.
func (r *Runner) trainedModel(dataset, model string) (kgc.Model, error) {
	if i := slices.Index(r.suiteModels(dataset), model); i >= 0 {
		runs, err := r.suite(dataset)
		if err != nil {
			return nil, err
		}
		return runs[i].final, nil
	}
	key := dataset + "/" + model
	if m, ok := r.models[key]; ok {
		return m, nil
	}
	in, err := r.ground(dataset)
	if err != nil {
		return nil, err
	}
	m, err := kgc.New(model, in.g, kgc.DefaultDim(model), 55)
	if err != nil {
		return nil, err
	}
	cfg := kgc.DefaultTrainConfig()
	cfg.Epochs = r.size().epochs
	kgc.Train(m, in.g, cfg)
	r.models[key] = m
	return m, nil
}

// nsFor returns the paper's sample budget: 10% of |E| (§5.2; 8% on
// ogbl-wikikg2, approximated here by the same 10% rule).
func nsFor(g *kg.Graph) int { return max(20, g.NumEntities/10) }
