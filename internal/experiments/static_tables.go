package experiments

import (
	"fmt"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/kg"
	"kgeval/internal/recommender"
)

// table2Datasets mirrors the paper's Table 2 dataset selection.
func table2Datasets() []string {
	return []string{"fb15k237-sim", "yago310-sim", "wikikg2-sim"}
}

// Table2 reproduces "Results from mining easy negatives with L-WD": the
// share and count of zero-score (entity, domain/range) pairs and the true
// triples such mining would wrongly discard.
func (r *Runner) Table2() error {
	t := newTable("Table 2: easy negatives mined with L-WD",
		"", "fb15k237-sim", "yago310-sim", "wikikg2-sim")
	var pct, cnt, fen []string
	for _, name := range table2Datasets() {
		ds, err := r.dataset(name)
		if err != nil {
			return err
		}
		rec, err := r.recommenderFor(name, "L-WD")
		if err != nil {
			return err
		}
		rep := core.MineEasyNegatives(rec, ds.Graph)
		pct = append(pct, fmt.Sprintf("%.1f", 100*rep.Fraction))
		cnt = append(cnt, fmt.Sprintf("%d", rep.EasyNegatives))
		fen = append(fen, fmt.Sprintf("%d", len(rep.FalseEasy)))
	}
	t.addRow(append([]string{"Easy negatives (%)"}, pct...)...)
	t.addRow(append([]string{"Easy negatives"}, cnt...)...)
	t.addRow(append([]string{"False easy negatives"}, fen...)...)
	t.render(r.W)
	return nil
}

// Table3 reproduces the sampling-complexity comparison at f_s = 2.5%:
// entity-aware candidate generation needs one sampling per distinct
// (h,r)/(r,t) pair, a relation recommender needs 2·|R|.
func (r *Runner) Table3() error {
	t := newTable("Table 3: samples needed at a 2.5% sampling rate",
		"Dataset", "(h,r)&(r,t) pairs", "# Samples (per-pair)",
		"(·,r,·) slots", "# Samples (relational)", "Reduction")
	for _, name := range []string{"yago310-sim", "codexl-sim", "wikikg2-sim"} {
		ds, err := r.dataset(name)
		if err != nil {
			return err
		}
		rep := core.SamplingComplexity(ds.Graph, 0.025)
		t.addRowf("%s\t%d\t%d\t%d\t%d\tx%.1f",
			name, rep.PairQueries, rep.PairSamples, rep.RelationSlots, rep.RelSamples, rep.ReductionRatio)
	}
	t.render(r.W)
	return nil
}

// Table4 prints the dataset statistics of the synthetic suite.
func (r *Runner) Table4() error {
	t := newTable("Table 4: statistics of the synthetic datasets",
		"Dataset", "|E|", "|R|", "|T|", "|TS|", "Train", "Valid", "Test",
		"Train pairs", "Test pairs")
	for _, cfg := range presetNames() {
		ds, err := r.dataset(cfg)
		if err != nil {
			return err
		}
		s := kg.ComputeStats(ds.Graph)
		t.addRowf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
			s.Name, s.NumEntities, s.NumRelations, s.NumTypes, s.NumTypePairs,
			s.Train, s.Valid, s.Test, s.TrainPairs, s.TestPairs)
	}
	t.render(r.W)
	return nil
}

func presetNames() []string {
	return []string{
		"fb15k-sim", "fb15k237-sim", "yago310-sim", "wikikg2-sim",
		"codexs-sim", "codexm-sim", "codexl-sim",
	}
}

// Table5 reproduces the recommender comparison: Candidate Recall
// (Test/Unseen), Reduction Rate and fit runtime per method and dataset.
func (r *Runner) Table5() error {
	t := newTable("Table 5: candidate recall (CR), reduction rate (RR) and fit runtime",
		"Dataset", "Model", "CR (Test/Unseen)", "RR", "Runtime")
	for _, name := range table2Datasets() {
		ds, err := r.dataset(name)
		if err != nil {
			return err
		}
		for _, recName := range recommenderNames() {
			rec, err := recommender.ByName(recName, recommenderSeed)
			if err != nil {
				return err
			}
			start := time.Now()
			if err := rec.Fit(ds.Graph); err != nil {
				return err
			}
			fit := time.Since(start)
			r.recs[name+"/"+recName] = rec
			sets := recommender.BuildStatic(rec.Scores(), ds.Graph, recommender.DefaultStaticOpts())
			q := recommender.EvaluateCandidates(sets, ds.Graph)
			t.addRowf("%s\t%s\t%.3f/%.3f\t%.3f\t%s",
				name, recName, q.CRTest, q.CRUnseen, q.RR, fit.Round(time.Millisecond))
		}
	}
	t.render(r.W)
	return nil
}
