package experiments

import (
	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

// extClassification implements the paper's §7 extension: triplet
// classification with ROC-AUC / AUC-PR against easy (uniform) versus hard
// (recommender-sampled) negatives. Expected shape (per the CoDEx findings
// the paper cites): random-negative classification is nearly solved; hard
// negatives make it substantially harder.
func (r *Runner) extClassification() error {
	t := newTable("Extension 1: triplet classification, easy vs hard negatives",
		"Dataset", "Negatives", "ROC-AUC", "AUC-PR")
	for _, dataset := range r.size().ext1Datasets {
		m, err := r.trainedModel(dataset, "ComplEx")
		if err != nil {
			return err
		}
		in, err := r.ground(dataset)
		if err != nil {
			return err
		}
		g := in.g
		rec, err := r.recommenderFor(dataset, "L-WD")
		if err != nil {
			return err
		}
		ns := nsFor(g)
		easy := eval.Classify(m, g, g.Test, &eval.RandomProvider{NumEntities: g.NumEntities, N: ns}, 2, in.filter, 11)
		hard := eval.Classify(m, g, g.Test, &eval.ProbabilisticProvider{Scores: rec.Scores(), N: ns}, 2, in.filter, 11)
		t.addRowf("%s\tRandom (easy)\t%.3f\t%.3f", dataset, easy.ROCAUC, easy.AUCPR)
		t.addRowf("%s\tProbabilistic (hard)\t%.3f\t%.3f", dataset, hard.ROCAUC, hard.AUCPR)
	}
	t.render(r.W)
	return nil
}

// extNoisyTypes implements §4.1's robustness simulation: type-aware
// recommenders are refitted on graphs whose entity types are partially
// dropped and partially noised, while type-free L-WD is unaffected.
func (r *Runner) extNoisyTypes() error {
	t := newTable("Extension 2: recommender robustness to incomplete/noisy types",
		"Dataset", "Method", "Types", "CR (Test/Unseen)", "RR")
	dataset := r.size().ext2Dataset
	in, err := r.ground(dataset)
	if err != nil {
		return err
	}
	g := in.g
	corrupted := synth.CorruptTypes(g, 0.5, 0.25, 77)

	for _, recName := range []string{"DBH-T", "OntoSim", "L-WD-T", "L-WD"} {
		for _, variant := range []struct {
			label  string
			target *kg.Graph
		}{{"clean", g}, {"noisy", corrupted}} {
			rec, err := recommender.ByName(recName, recommenderSeed)
			if err != nil {
				return err
			}
			if err := rec.Fit(variant.target); err != nil {
				return err
			}
			q := recommender.EvaluateCandidates(
				recommender.BuildStatic(rec.Scores(), variant.target, recommender.DefaultStaticOpts()), variant.target)
			t.addRowf("%s\t%s\t%s\t%.3f/%.3f\t%.3f",
				dataset, recName, variant.label, q.CRTest, q.CRUnseen, q.RR)
		}
	}
	t.render(r.W)
	return nil
}
