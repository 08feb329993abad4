// Command kgeval trains a KGC model on a synthetic dataset and evaluates it
// with the full filtered protocol and with the paper's sampled estimators,
// printing a side-by-side comparison.
//
// Usage:
//
//	kgeval -dataset codexs-sim -model ComplEx -epochs 10
//	kgeval -dataset wikikg2-sim -model ComplEx -rec L-WD -ns 240
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/recommender"
	"kgeval/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kgeval: ")
	var (
		dataset = flag.String("dataset", "codexs-sim", "synthetic dataset preset")
		model   = flag.String("model", "ComplEx", "KGC model ("+strings.Join(kgc.ModelNames(), ", ")+")")
		dim     = flag.Int("dim", 0, "embedding dimension (0 = model default)")
		epochs  = flag.Int("epochs", 10, "training epochs")
		rec     = flag.String("rec", "L-WD", "relation recommender (PT, DBH, DBH-T, OntoSim, PIE, L-WD, L-WD-T)")
		ns      = flag.Int("ns", 0, "candidate samples per relation/direction (0 = 10% of |E|)")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *dim < 0 || *ns < 0 {
		fmt.Fprintf(flag.CommandLine.Output(), "-dim %d, -ns %d: neither may be negative (0 = default)\n", *dim, *ns)
		flag.Usage()
		os.Exit(2)
	}

	cfg, ok := synth.PresetByName(*dataset)
	if !ok {
		log.Fatalf("unknown dataset %q", *dataset)
	}
	fmt.Printf("generating %s...\n", *dataset)
	ds, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	s := kg.ComputeStats(g)
	fmt.Printf("  |E|=%d |R|=%d |T|=%d train=%d valid=%d test=%d\n",
		s.NumEntities, s.NumRelations, s.NumTypes, s.Train, s.Valid, s.Test)

	d := *dim
	if d == 0 {
		d = kgc.DefaultDim(*model)
	}
	m, err := kgc.New(*model, g, d, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training %s (dim=%d, %d epochs)...\n", *model, d, *epochs)
	tc := kgc.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.Seed = *seed
	tc.EpochCallback = func(ep int) bool {
		fmt.Printf("  epoch %d/%d\n", ep, *epochs)
		return true
	}
	kgc.Train(m, g, tc)

	rc, err := recommender.ByName(*rec, *seed)
	if err != nil {
		log.Fatal(err)
	}

	n := *ns
	if n == 0 {
		n = g.NumEntities / 10
	}
	fw := core.New(rc, n, *seed)
	fmt.Printf("fitting %s (n_s=%d)...\n", rc.Name(), n)
	if err := fw.Fit(g); err != nil {
		log.Fatal(err)
	}

	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	opts := eval.Options{Filter: filter, Seed: *seed}

	full := core.FullEvaluate(m, g, g.Test, opts)
	fmt.Printf("\n%-16s %8s %8s %8s %8s %12s\n", "protocol", "MRR", "Hits@1", "Hits@10", "MR", "time")
	row := func(name string, r eval.Result) {
		fmt.Printf("%-16s %8.4f %8.4f %8.4f %8.1f %12s\n",
			name, r.MRR, r.Hits1, r.Hits10, r.MR, r.Elapsed.Round(time.Millisecond))
	}
	row("full", full)
	for _, st := range core.Strategies() {
		row(st.String()+" ("+name(st)+")", fw.Estimate(m, g, g.Test, st, opts))
	}
}

func name(s core.Strategy) string {
	switch s {
	case core.StrategyRandom:
		return "random"
	case core.StrategyStatic:
		return "static"
	case core.StrategyProbabilistic:
		return "probabilistic"
	}
	return "?"
}
