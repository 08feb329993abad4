// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic dataset suite. Each experiment is
// addressable by the paper's artifact id (table2 … table15, fig3a … fig6,
// thm1); cmd/benchtables runs them from the command line and bench_test.go
// wraps each in a testing.B benchmark.
//
// Experiments come in two scales: ScaleFull reproduces the shapes with the
// full synthetic suite (minutes), ScaleQuick shrinks datasets, model counts
// and epochs so that benchmarks finish in seconds while exercising the same
// code paths.
package experiments

import (
	"fmt"
	"io"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
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

// Runner executes experiments, caching datasets, fitted recommenders and
// training suites so tables that share inputs do not recompute them.
type Runner struct {
	Scale Scale
	W     io.Writer

	datasets  map[string]*synth.Dataset
	filters   map[string]*kg.FilterIndex
	recs      map[string]recommender.Recommender // key: dataset/recname
	suites    map[string]*suiteResult
	sweep     []sweepRow // cached Figure 3/6 sample-size sweep
	sweepFull eval.Result
}

// NewRunner builds a Runner writing experiment output to w.
func NewRunner(scale Scale, w io.Writer) *Runner {
	return &Runner{
		Scale:    scale,
		W:        w,
		datasets: map[string]*synth.Dataset{},
		filters:  map[string]*kg.FilterIndex{},
		recs:     map[string]recommender.Recommender{},
		suites:   map[string]*suiteResult{},
	}
}

// experimentTable maps ids to runners in the paper's presentation order.
var experimentOrder = []string{
	"table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "table9",
	"table12", "table13", "table14", "table15",
	"fig3a", "fig3b", "fig3c", "fig4", "fig6", "thm1",
	"ext1", "ext2",
}

// ExperimentIDs lists every regenerable artifact in order.
func ExperimentIDs() []string {
	return append([]string(nil), experimentOrder...)
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) error {
	switch id {
	case "table2":
		return r.Table2()
	case "table3":
		return r.Table3()
	case "table4":
		return r.Table4()
	case "table5":
		return r.Table5()
	case "table6":
		return r.Table6()
	case "table7":
		return r.Table7()
	case "table8":
		return r.Table8()
	case "table9":
		return r.Table9()
	case "table12":
		return r.TableHitsCorrelation(3, "table12")
	case "table13":
		return r.TableHitsCorrelation(10, "table13")
	case "table14":
		return r.TableHitsCorrelation(1, "table14")
	case "table15":
		return r.Table15()
	case "fig3a":
		return r.Fig3a()
	case "fig3b":
		return r.Fig3b()
	case "fig3c":
		return r.Fig3c()
	case "fig4":
		return r.Fig4()
	case "fig6":
		return r.Fig6()
	case "thm1":
		return r.Thm1()
	case "ext1":
		return r.ExtClassification()
	case "ext2":
		return r.ExtNoisyTypes()
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ExperimentIDs())
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() error {
	for _, id := range ExperimentIDs() {
		if err := r.Run(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// dataset generates (or returns cached) a preset, shrunk at quick scale.
func (r *Runner) dataset(name string) (*synth.Dataset, error) {
	if ds, ok := r.datasets[name]; ok {
		return ds, nil
	}
	cfg, ok := synth.PresetByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	if r.Scale == ScaleQuick {
		cfg = shrink(cfg)
	}
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	r.datasets[name] = ds
	return ds, nil
}

// shrink reduces a preset for quick-scale runs while keeping its shape.
func shrink(cfg synth.Config) synth.Config {
	cfg.NumEntities = max(200, cfg.NumEntities/8)
	cfg.NumTriples = max(2000, cfg.NumTriples/8)
	cfg.NumRelations = max(6, cfg.NumRelations/2)
	cfg.NumTypes = max(6, cfg.NumTypes/2)
	return cfg
}

// filter returns the cached train+valid+test filter index of a dataset.
func (r *Runner) filter(name string) (*kg.FilterIndex, error) {
	if f, ok := r.filters[name]; ok {
		return f, nil
	}
	ds, err := r.dataset(name)
	if err != nil {
		return nil, err
	}
	f := kg.NewFilterIndex(ds.Graph.Train, ds.Graph.Valid, ds.Graph.Test)
	r.filters[name] = f
	return f, nil
}

// recommenderFor fits (or returns cached) a recommender on a dataset.
func (r *Runner) recommenderFor(dataset, recName string) (recommender.Recommender, error) {
	key := dataset + "/" + recName
	if rec, ok := r.recs[key]; ok {
		return rec, nil
	}
	ds, err := r.dataset(dataset)
	if err != nil {
		return nil, err
	}
	rec, err := recommender.ByName(recName, recommenderSeed)
	if err != nil {
		return nil, err
	}
	if err := rec.Fit(ds.Graph); err != nil {
		return nil, err
	}
	r.recs[key] = rec
	return rec, nil
}

// recommenderSeed seeds the recommenders with learned parameters (PIE).
const recommenderSeed = 7

// recommenderNames is Table 5's method order.
func recommenderNames() []string {
	return []string{"PT", "DBH-T", "OntoSim", "PIE", "L-WD", "L-WD-T"}
}

// nsFor returns the paper's sample budget: 10% of |E| (§5.2; 8% on
// ogbl-wikikg2, approximated here by the same 10% rule).
func nsFor(g *kg.Graph) int {
	ns := g.NumEntities / 10
	if ns < 20 {
		ns = 20
	}
	return ns
}
