package experiments

import (
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kgc"
	"kgeval/internal/kp"
)

// epochPoint records one validation evaluation during training: the true
// full filtered metrics plus every estimator's output and cost.
type epochPoint struct {
	epoch    int
	full     eval.Metrics
	fullTime time.Duration

	est     map[core.Strategy]eval.Metrics
	estTime map[core.Strategy]time.Duration

	kpScore map[core.Strategy]float64
	kpTime  map[core.Strategy]time.Duration
}

// modelRun is one model's training trajectory on a dataset.
type modelRun struct {
	model  string
	final  kgc.Model
	points []epochPoint
}

// suiteModels returns the paper's §5.2 model selection per dataset, capped
// by the scale.
func (r *Runner) suiteModels(dataset string) []string {
	var models []string
	switch dataset {
	case "fb15k237-sim", "fb15k-sim":
		models = []string{"TransE", "RotatE", "RESCAL", "DistMult", "ConvE", "ComplEx"}
	case "codexs-sim":
		models = []string{"TransE", "RESCAL", "ConvE", "ComplEx"}
	case "codexm-sim":
		models = []string{"ConvE", "ComplEx"}
	case "codexl-sim":
		models = []string{"TransE", "TuckER", "RESCAL", "ConvE", "ComplEx"}
	default: // yago310-sim, wikikg2-sim
		models = []string{"ComplEx"}
	}
	if n := r.size().suiteModels; n > 0 && len(models) > n {
		models = models[:n]
	}
	return models
}

// suite trains every model configured for the dataset, evaluating the true
// metric and every estimator each epoch (the paper's 100-epoch protocol,
// scaled down). Results are cached per dataset.
func (r *Runner) suite(dataset string) ([]modelRun, error) {
	if runs, ok := r.suites[dataset]; ok {
		return runs, nil
	}
	in, err := r.ground(dataset)
	if err != nil {
		return nil, err
	}
	g := in.g
	rec, err := r.recommenderFor(dataset, "L-WD")
	if err != nil {
		return nil, err
	}
	fw := core.New(rec, nsFor(g), 1234)
	// The recommender is already fitted; refitting L-WD on the same graph
	// gives the same scores. The static candidate sets are built on the
	// first Static estimate, not here.
	if err := fw.Fit(g); err != nil {
		return nil, err
	}

	var runs []modelRun
	for mi, name := range r.suiteModels(dataset) {
		m, err := kgc.New(name, g, kgc.DefaultDim(name), int64(100+mi))
		if err != nil {
			return nil, err
		}
		run := modelRun{model: name}
		cfg := kgc.DefaultTrainConfig()
		cfg.Epochs = r.size().epochs
		cfg.Seed = int64(7 + mi)
		cfg.EpochCallback = func(epoch int) bool {
			pt := epochPoint{
				epoch:   epoch,
				est:     map[core.Strategy]eval.Metrics{},
				estTime: map[core.Strategy]time.Duration{},
				kpScore: map[core.Strategy]float64{},
				kpTime:  map[core.Strategy]time.Duration{},
			}
			seed := int64(1000*mi + epoch)
			opts := eval.Options{Filter: in.filter, Seed: seed}
			full := core.FullEvaluate(m, g, g.Valid, opts)
			pt.full, pt.fullTime = full.Metrics, full.Elapsed
			for _, s := range core.Strategies() {
				est := fw.Estimate(m, g, g.Valid, s, opts)
				pt.est[s], pt.estTime[s] = est.Metrics, est.Elapsed

				kpRes := kp.Score(m, g.Valid, fw.Provider(s), seed)
				pt.kpScore[s], pt.kpTime[s] = kpRes.Score, kpRes.Elapsed
			}
			run.points = append(run.points, pt)
			return true
		}
		kgc.Train(m, g, cfg)
		run.final = m
		runs = append(runs, run)
	}
	r.suites[dataset] = runs
	return runs, nil
}

// series extracts per-epoch slices for correlation and error computation.
func (run *modelRun) series(metric func(eval.Metrics) float64) (full []float64, est map[core.Strategy][]float64, kpS map[core.Strategy][]float64) {
	est = map[core.Strategy][]float64{}
	kpS = map[core.Strategy][]float64{}
	for _, pt := range run.points {
		full = append(full, metric(pt.full))
		for _, s := range core.Strategies() {
			est[s] = append(est[s], metric(pt.est[s]))
			kpS[s] = append(kpS[s], pt.kpScore[s])
		}
	}
	return full, est, kpS
}

// mrr is the metric accessor used by most tables.
func mrr(m eval.Metrics) float64 { return m.MRR }
