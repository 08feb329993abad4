package experiments

import (
	"fmt"
	"math/rand"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/recommender"
	"kgeval/internal/stats"
)

// largeDataset is the ogbl-wikikg2 analogue the large-scale figures run on.
const largeDataset = "wikikg2-sim"

// fig3a reproduces "Evaluation time vs sample size on the test set": the
// per-strategy wall-clock cost as n_s grows, with the full evaluation as the
// reference line.
func (r *Runner) fig3a() error {
	return r.largeSweep("Figure 3a: evaluation time (s) vs sample size — "+largeDataset,
		func(res eval.Result) string { return fmt.Sprintf("%.3f", res.Elapsed.Seconds()) })
}

// fig3b reproduces "Filtered MRR vs sample size": Random stays optimistic
// while Probabilistic/Static converge to the true MRR with tiny samples.
func (r *Runner) fig3b() error {
	return r.largeSweep("Figure 3b: filtered MRR estimate vs sample size — "+largeDataset,
		func(res eval.Result) string { return fmt.Sprintf("%.3f", res.MRR) })
}

// fig6 reproduces the Hits@1/3/10 versions of Figure 3b.
func (r *Runner) fig6() error {
	for _, k := range []int{1, 3, 10} {
		err := r.largeSweep(fmt.Sprintf("Figure 6: filtered Hits@%d estimate vs sample size — %s", k, largeDataset),
			func(res eval.Result) string {
				v, _ := res.Hits(k)
				return fmt.Sprintf("%.3f", v)
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepRow is one sample-size point of the Figure 3/6 sweep.
type sweepRow struct {
	frac                 float64
	random, static, prob eval.Result
}

// largeSweep renders the Figure 3/6 sample-size sweep on the large dataset,
// computing the underlying evaluations once and caching them across figures.
func (r *Runner) largeSweep(title string, cell func(eval.Result) string) error {
	rows, full, err := r.sweepResults()
	if err != nil {
		return err
	}
	t := newTable(title, "Sample size (% of |E|)", "Random", "Static", "Probabilistic")
	for _, row := range rows {
		t.addRow(fmt.Sprintf("%.1f", 100*row.frac), cell(row.random), cell(row.static), cell(row.prob))
	}
	t.addRow("full", cell(full), cell(full), cell(full))
	t.render(r.W)
	return nil
}

// sweepResults computes (once) the sweep shared by fig3a, fig3b and fig6.
func (r *Runner) sweepResults() ([]sweepRow, eval.Result, error) {
	if r.sweep != nil {
		return r.sweep, r.sweepFull, nil
	}
	m, err := r.trainedModel(largeDataset, "ComplEx")
	if err != nil {
		return nil, eval.Result{}, err
	}
	in, err := r.ground(largeDataset)
	if err != nil {
		return nil, eval.Result{}, err
	}
	g := in.g
	rec, err := r.recommenderFor(largeDataset, "L-WD")
	if err != nil {
		return nil, eval.Result{}, err
	}
	sets := recommender.BuildStatic(rec.Scores(), g, recommender.DefaultStaticOpts())

	opts := eval.Options{Filter: in.filter, Seed: 99}
	r.sweepFull = core.FullEvaluate(m, g, g.Test, opts)
	for _, f := range r.size().sweepFractions {
		ns := max(1, int(f*float64(g.NumEntities)))
		r.sweep = append(r.sweep, sweepRow{
			frac:   f,
			random: eval.Evaluate(m, g, g.Test, &eval.RandomProvider{NumEntities: g.NumEntities, N: ns}, opts),
			static: eval.Evaluate(m, g, g.Test, &eval.StaticProvider{Sets: sets, N: ns}, opts),
			prob:   eval.Evaluate(m, g, g.Test, &eval.ProbabilisticProvider{Scores: rec.Scores(), N: ns}, opts),
		})
	}
	return r.sweep, r.sweepFull, nil
}

// fig3c reproduces "Estimated validation MRR across training": the paper's
// money plot where Probabilistic coincides with the true curve while Random
// floats far above it.
func (r *Runner) fig3c() error {
	runs, err := r.suite(largeDataset)
	if err != nil {
		return err
	}
	t := newTable("Figure 3c: estimated validation MRR across training — "+largeDataset+" ("+runs[0].model+")",
		"Epoch", "True MRR", "Random", "Static", "Probabilistic")
	for _, pt := range runs[0].points {
		t.addRowf("%d\t%.3f\t%.3f\t%.3f\t%.3f",
			pt.epoch, pt.full.MRR,
			pt.est[core.StrategyRandom].MRR,
			pt.est[core.StrategyStatic].MRR,
			pt.est[core.StrategyProbabilistic].MRR)
	}
	t.render(r.W)
	return nil
}

// fig4 reproduces "MAPE (%) against the maximum sample size" per relation
// recommender: the error of the probabilistically sampled MRR estimate
// relative to the true full-ranking MRR, with 95% CIs over repeats.
func (r *Runner) fig4() error {
	sz := r.size()
	for _, dataset := range sz.fig4Datasets {
		m, err := r.trainedModel(dataset, "ComplEx")
		if err != nil {
			return err
		}
		in, err := r.ground(dataset)
		if err != nil {
			return err
		}
		g := in.g
		opts := eval.Options{Filter: in.filter, Seed: 5}
		full := core.FullEvaluate(m, g, g.Test, opts)

		t := newTable("Figure 4/5: MAPE (%) of the MRR estimate vs sample size — "+dataset,
			append([]string{"Method"}, fractionHeaders(sz.fig4Fractions)...)...)
		for _, recName := range recommenderNames {
			rec, err := r.recommenderFor(dataset, recName)
			if err != nil {
				return err
			}
			cells := []string{recName}
			for _, f := range sz.fig4Fractions {
				ns := max(1, int(f*float64(g.NumEntities)))
				var mapes []float64
				for rep := 0; rep < sz.fig4Repeats; rep++ {
					o := opts
					o.Seed = int64(100*rep + 7)
					prov := &eval.ProbabilisticProvider{Scores: rec.Scores(), N: ns}
					est := eval.Evaluate(m, g, g.Test, prov, o)
					mapes = append(mapes, stats.MAPE([]float64{est.MRR}, []float64{full.MRR}))
				}
				mean, half := stats.CI95(mapes)
				cells = append(cells, fmt.Sprintf("%.1f±%.1f", mean, half))
			}
			t.addRow(cells...)
		}
		t.render(r.W)
	}
	return nil
}

func fractionHeaders(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%.0f%%", 100*f)
	}
	return out
}

// thm1 empirically verifies Equation 1 and Theorem 1: the hypergeometric
// expectation of uniformly sampled demotions matches simulation, and the
// expected rank gain from sampling inside the range set is non-negative.
func (r *Runner) thm1() error {
	rng := rand.New(rand.NewSource(42))
	t := newTable("Theorem 1 / Equation 1: expected demotions under uniform vs range-set sampling",
		"|E|", "|RS_r|", "|E_(h,r)|", "n_s", "E[X_u] (Eq.1)", "E[X_u] (sim)", "E[Y] (Thm.1)")
	cases := []struct{ e, rs, k, ns int }{
		{1000, 100, 20, 10},
		{1000, 100, 20, 100},
		{1000, 100, 20, 500},
		{1000, 500, 50, 100},
		{1000, 1000, 50, 100},
	}
	for _, c := range cases {
		analytical := stats.HypergeometricMean(c.k, c.e, c.ns)
		sim := simulateHypergeometric(rng, c.k, c.e, c.ns, 4000)
		gain := stats.ExpectedRankGain(c.k, c.e, c.rs, c.ns)
		if gain < 0 {
			return fmt.Errorf("thm1 violated: negative gain %v for %+v", gain, c)
		}
		t.addRowf("%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f",
			c.e, c.rs, c.k, c.ns, analytical, sim, gain)
	}
	t.render(r.W)
	return nil
}

// simulateHypergeometric draws n items without replacement from a population
// with k successes and returns the mean number of successes over trials.
func simulateHypergeometric(rng *rand.Rand, k, n, draws, trials int) float64 {
	pop := make([]int, n)
	for i := 0; i < k; i++ {
		pop[i] = 1
	}
	total := 0
	for tr := 0; tr < trials; tr++ {
		rng.Shuffle(n, func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
		for i := 0; i < draws; i++ {
			total += pop[i]
		}
	}
	return float64(total) / float64(trials)
}
