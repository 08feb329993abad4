package main

// Every workload and metric name kgebench emits is declared here, once.
// BENCHMARK.json repeats them for the driver; selftest_test.go fails when
// the two disagree.

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{"estimate_sampled", "full_ranking", "service_small_jobs", "cold_start"}

// metricDef is one metric's contract: unit, direction, and — end-to-end
// only — the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool
	Bound  float64
}

// endToEnd are the eight numbers a user of the system sees, reported by
// every untraced run of every workload. The four time-based ones are reported
// at reference machine speed (canary.go). None can read 0: failures and the
// MRR error are reported as their complements (success_ratio, mrr_fidelity),
// because the driver's bounds are relative and a metric at 0 has no
// relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"cands_per_s", "1/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"alloc_mb_per_op", "MB", false, 0.15},
	{"peak_rss_mb", "MB", false, 0.25},
	{"mrr_fidelity", "MRR", true, 0.03},
	{"success_ratio", "ratio", true, 0.001},
}

var (
	modelNames       = []string{"TransE", "DistMult", "ComplEx", "RotatE", "RESCAL", "TuckER", "ConvE"}
	trainedNames     = modelNames[:3]
	untrainedNames   = modelNames[3:]
	coldRecommenders = []string{"PT", "DBH", "DBH-T", "OntoSim", "L-WD"}
	// PIE-Sim is the costliest Fit; it is timed in the ladder only, not in
	// the cold_start rotation.
	ladderRecommenders = []string{"PT", "DBH", "DBH-T", "OntoSim", "PIE", "L-WD"}
	strategyNames      = []string{"R", "S", "P"}
	precisionNames     = []string{"float64", "float32", "int8"}
	stageNames         = []string{"plan_compile", "pool_draw", "score", "rank_merge"}
)

// perLayer are the traced run's numbers, one family per layer. They carry no
// bound: they explain a movement of an end-to-end metric, they do not gate.
// A rung a workload does not exercise reads 0 on that workload's traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit string, higher bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Higher: higher})
		}
	}
	family := func(unit string, higher bool, prefix string, suffixes []string) {
		for _, s := range suffixes {
			add(unit, higher, prefix+"."+s)
		}
	}

	// harness/load and machine: context and noise canaries.
	add("ms", false, "load.op_p90_ms")
	add("count", true, "load.ops", "load.rounds")
	add("ratio", false, "load.fail_ratio")
	add("ratio", true, "load.dup_job_share", "load.dup_plan_key_share")
	add("count", false, "load.gc_cycles")
	add("ms", false, "load.gc_pause_ms")
	add("s", false, "load.reference_s")
	add("%", false, "load.span_overhead_pct")
	add("ms", false, "machine.canary_ms")
	add("GB/s", true, "machine.stream_gbps")
	add("GFLOP/s", true, "machine.fma_gflops")

	add("ms", false, "synth.generate_ms", "kg.filter_index_ms")

	family("ms", false, "recommender.fit_ms", ladderRecommenders)
	family("ms", false, "recommender.build_static_ms", ladderRecommenders)
	add("count", false, "recommender.score_nnz.L-WD")

	add("ms", false, "core.fit_ms")
	add("%", false, "core.estimate_overhead_pct")
	add("ratio", false, "core.estimate_many_vs_separate")
	add("x", true, "core.speedup_vs_full")
	add("tau", true, "core.model_order_kendall")
	add("MRR", false, "core.mrr_abs_err")
	family("MRR", false, "core.mrr_abs_err", strategyNames)

	family("ms", false, "eval.pool_draw_ms", strategyNames)
	add("count", false, "eval.pool_size_mean.S")
	family("ratio", false, "eval.stage_share", stageNames)
	family("ms", false, "eval.pass_ms", modelNames)
	family("ms", false, "eval.full_pass_ms", modelNames)
	add("MB", false, "eval.alloc_mb_per_pass")
	add("count", false, "eval.allocs_per_pass")
	add("ratio", true, "eval.parallel_eff")

	family("ns", false, "kgc.score_ns_per_cand_dim", modelNames)
	family("ns", false, "kgc.score_ns_per_cand_dim.DistMult", precisionNames[1:])
	family("ns", false, "kgc.score_tails_ns_per_cand_dim", modelNames[:2])
	add("GFLOP/s", true, "kgc.score_gflops.DistMult")
	add("ms", false, "kgc.load_ms", "kgc.save_ms")

	family("GB/s", true, "store.gather_gbps", precisionNames)
	add("GB/s", true, "store.gather_quantized_gbps")
	family("ms", false, "store.from_rows_ms", precisionNames[1:])

	add("ms", false, "service.http_submit_ms", "service.queue_wait_ms", "service.run_ms",
		"service.eval_ms", "service.load_fit_ms", "service.notify_ms",
		"service.engine_submit_to_terminal_ms")
	add("ratio", true, "service.cache_hit_ratio")
	add("ratio", false, "service.rejected_ratio")
	add("MB", false, "service.body_mb")
	add("count", false, "service.sse_events_per_job")

	add("%", false, "obs.trace_overhead_pct")
	add("MB", false, "obs.trace_alloc_mb_per_pass")
	return out
}
