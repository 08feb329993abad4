package experiments

import (
	"fmt"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/stats"
)

// table6 reproduces "MAEs of estimating the filtered validation MRR with
// different sampling strategies" — the paper's evidence that Random
// overshoots by ~0.1–0.3 MRR while P and S land within ~0.01.
func (r *Runner) table6() error {
	t := newTable("Table 6: MAE of estimating the filtered validation MRR",
		"Dataset", "Model", "R", "P", "S")
	return r.suiteTable(t, func(dataset string, runs []modelRun) {
		for i := range runs {
			full, est, _ := runs[i].series(mrr)
			t.addRowf("%s\t%s\t%.3f\t%.3f\t%.3f",
				dataset, runs[i].model,
				stats.MAE(est[core.StrategyRandom], full),
				stats.MAE(est[core.StrategyProbabilistic], full),
				stats.MAE(est[core.StrategyStatic], full))
		}
	})
}

// suiteTable adds rows(dataset, runs) to t for each suite of the scale, in
// order, and renders t.
func (r *Runner) suiteTable(t *textTable, rows func(dataset string, runs []modelRun)) error {
	for _, dataset := range r.size().suiteDatasets {
		runs, err := r.suite(dataset)
		if err != nil {
			return err
		}
		rows(dataset, runs)
	}
	t.render(r.W)
	return nil
}

// table7 reproduces "Correlation with the Filtered MRR": Pearson correlation
// of the KP proxy and of the rank estimates against the true metric across
// training epochs.
func (r *Runner) table7() error {
	return r.correlationTable("Table 7: Pearson correlation with the filtered MRR", mrr)
}

// hitsCorrelation reproduces Tables 12–14 (correlation with filtered
// Hits@k for k = 3, 10, 1).
func (r *Runner) hitsCorrelation(k int, table string) error {
	title := fmt.Sprintf("%s: Pearson correlation with the filtered Hits@%d", table, k)
	return r.correlationTable(title, func(m eval.Metrics) float64 {
		v, _ := m.Hits(k)
		return v
	})
}

func (r *Runner) correlationTable(title string, metric func(eval.Metrics) float64) error {
	t := newTable(title,
		"Dataset", "Model", "KP R", "KP P", "KP S", "Rank R", "Rank P", "Rank S")
	return r.suiteTable(t, func(dataset string, runs []modelRun) {
		for i := range runs {
			full, est, kpS := runs[i].series(metric)
			t.addRowf("%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f",
				dataset, runs[i].model,
				stats.Pearson(kpS[core.StrategyRandom], full),
				stats.Pearson(kpS[core.StrategyProbabilistic], full),
				stats.Pearson(kpS[core.StrategyStatic], full),
				stats.Pearson(est[core.StrategyRandom], full),
				stats.Pearson(est[core.StrategyProbabilistic], full),
				stats.Pearson(est[core.StrategyStatic], full))
		}
	})
}

// table8 reproduces "Average Kendall-Tau rank correlations of ranking
// models' performance over epochs": per epoch, does the estimator order the
// dataset's models the same way the true metric does?
func (r *Runner) table8() error {
	t := newTable("Table 8: average Kendall-Tau of model ordering per epoch",
		"Dataset", "KP R", "KP P", "KP S", "Rank R", "Rank P", "Rank S")
	return r.suiteTable(t, func(dataset string, runs []modelRun) {
		if len(runs) < 3 {
			return // the paper computes Table 8 only with ≥3 models
		}
		epochs := len(runs[0].points)
		kpTau := map[core.Strategy][]float64{}
		estTau := map[core.Strategy][]float64{}
		for ep := 0; ep < epochs; ep++ {
			var truth []float64
			estVals := map[core.Strategy][]float64{}
			kpVals := map[core.Strategy][]float64{}
			for i := range runs {
				pt := runs[i].points[ep]
				truth = append(truth, pt.full.MRR)
				for _, st := range core.Strategies() {
					estVals[st] = append(estVals[st], pt.est[st].MRR)
					kpVals[st] = append(kpVals[st], pt.kpScore[st])
				}
			}
			for _, st := range core.Strategies() {
				estTau[st] = append(estTau[st], stats.KendallTau(estVals[st], truth))
				kpTau[st] = append(kpTau[st], stats.KendallTau(kpVals[st], truth))
			}
		}
		t.addRowf("%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f",
			dataset,
			stats.Mean(kpTau[core.StrategyRandom]),
			stats.Mean(kpTau[core.StrategyProbabilistic]),
			stats.Mean(kpTau[core.StrategyStatic]),
			stats.Mean(estTau[core.StrategyRandom]),
			stats.Mean(estTau[core.StrategyProbabilistic]),
			stats.Mean(estTau[core.StrategyStatic]))
	})
}

// table9 reproduces "Average speed-up of evaluation": wall-clock full
// evaluation time divided by each estimator's time, aggregated over models
// and epochs.
func (r *Runner) table9() error {
	t := newTable("Table 9/11: average speed-up of evaluation (higher is better)",
		"Dataset", "KP R", "KP P", "KP S", "Rank R", "Rank P", "Rank S", "Full eval")
	return r.suiteTable(t, func(dataset string, runs []modelRun) {
		kpSp := map[core.Strategy][]float64{}
		estSp := map[core.Strategy][]float64{}
		var fullMs []float64
		for i := range runs {
			for _, pt := range runs[i].points {
				fullMs = append(fullMs, pt.fullTime.Seconds()*1e3)
				for _, st := range core.Strategies() {
					if pt.kpTime[st] > 0 {
						kpSp[st] = append(kpSp[st], pt.fullTime.Seconds()/pt.kpTime[st].Seconds())
					}
					if pt.estTime[st] > 0 {
						estSp[st] = append(estSp[st], pt.fullTime.Seconds()/pt.estTime[st].Seconds())
					}
				}
			}
		}
		fmtSp := func(xs []float64) string {
			m, sd := stats.MeanStd(xs)
			return fmt.Sprintf("%.1f±%.1f", m, sd)
		}
		fm, fs := stats.MeanStd(fullMs)
		t.addRow(dataset,
			fmtSp(kpSp[core.StrategyRandom]), fmtSp(kpSp[core.StrategyProbabilistic]), fmtSp(kpSp[core.StrategyStatic]),
			fmtSp(estSp[core.StrategyRandom]), fmtSp(estSp[core.StrategyProbabilistic]), fmtSp(estSp[core.StrategyStatic]),
			fmt.Sprintf("%.2f±%.2fms", fm, fs))
	})
}

// table15 reproduces "MAEs of estimating the true rank of Hits@X metrics"
// with the paper's P/R/S column order.
func (r *Runner) table15() error {
	t := newTable("Table 15: MAE of estimating filtered Hits@X",
		"Dataset", "Model",
		"H@1 P", "H@1 R", "H@1 S",
		"H@3 P", "H@3 R", "H@3 S",
		"H@10 P", "H@10 R", "H@10 S")
	return r.suiteTable(t, func(dataset string, runs []modelRun) {
		for i := range runs {
			cells := []string{dataset, runs[i].model}
			for _, k := range []int{1, 3, 10} {
				full, est, _ := runs[i].series(func(m eval.Metrics) float64 {
					v, _ := m.Hits(k)
					return v
				})
				cells = append(cells,
					fmt.Sprintf("%.3f", stats.MAE(est[core.StrategyProbabilistic], full)),
					fmt.Sprintf("%.3f", stats.MAE(est[core.StrategyRandom], full)),
					fmt.Sprintf("%.3f", stats.MAE(est[core.StrategyStatic], full)))
			}
			t.addRow(cells...)
		}
	})
}
