// Package kgeval is a from-scratch Go reproduction of "Are We Wasting Time?
// A Fast, Accurate Performance Evaluation Framework for Knowledge Graph Link
// Predictors" (Cornell et al., ICDE 2025; arXiv:2402.00053).
//
// The repository root package only anchors the module, its benchmark
// harness (bench_test.go) and the gate that every export under internal/ has
// a non-test caller (orphans_test.go). The implementation lives under
// internal/:
//
//	internal/core         the evaluation framework (the paper's contribution):
//	                      Estimate, and EstimateMany for evaluating a model
//	                      fleet over one shared set of candidate pools; Fit
//	                      fits the recommender only, the static candidate
//	                      sets are built on demand by their first user
//	internal/recommender  relation recommenders: PT, DBH(-T), OntoSim,
//	                      L-WD(-T), PIE
//	internal/eval         full + sampled filtered ranking protocols, executed
//	                      as a relation-grouped plan: queries bucketed per
//	                      relation, pools drawn once, whole relations scored
//	                      in batches by the one executor (its reference is
//	                      the naive oracle in oracle_test.go);
//	                      every Result carries a StageTimings breakdown of
//	                      plan compile / pool draw / score / rank-merge time
//	internal/obs          dependency-free metrics: counters, gauges,
//	                      fixed-bucket histograms, Prometheus text exposition
//	                      (trace-ID exemplars when OpenMetrics is
//	                      negotiated), runtime gauges; obs/trace
//	                      adds context-propagated spans and the bounded
//	                      per-trace flight recorder a job keeps, behind
//	                      /v1/jobs/{id}/trace
//	internal/service      evaluation-as-a-service in four layers: jobs (single-
//	                      and multi-model), the fitted-framework cache, the
//	                      model registry (a byte-bounded LRU of loaded models
//	                      keyed by the SHA-256 of their checkpoint bytes, fed
//	                      by PUT /v1/models or a streamed inline snapshot, so
//	                      a model is parsed once and shared by every job that
//	                      names it) and the engine, behind the kgevald HTTP
//	                      API; production-hardened with end-to-end job
//	                      deadlines (terminal state "expired"), admission
//	                      control (429 + Retry-After, a memory-budget gate
//	                      charging snapshot and entity-store bytes),
//	                      graceful drain, and one Fit per job: a
//	                      failed Fit fails its job and the jobs that
//	                      joined it, and caches nothing
//	internal/faults       deterministic fault-injection registry for chaos
//	                      tests and the kgevald -faults flag: named pipeline
//	                      sites fire seeded error/panic/stall faults; unarmed
//	                      sites cost one atomic load
//	internal/kgc          TransE/DistMult/ComplEx/RESCAL/RotatE/TuckER/ConvE;
//	                      each writes its query once, and NewBatchScorer's
//	                      lane and its ScoreTails/ScoreHeads both run it. The
//	                      lane scores a block of up to 64 directed queries that share a
//	                      pool against L1-sized tiles of candidates filled
//	                      from the entity store one tile at a time — one kernel per model at every
//	                      precision, never a pool-sized candidate block. Three
//	                      lanes whose scores have the same bits and whose
//	                      ranks are the same: AVX-512F kernels (for ranks
//	                      float32 ones, sixteen candidates per ZMM register:
//	                      an FMA dot product, an L1 distance from Σmax(q, c)
//	                      and RotatE's VRSQRT14PS root, each within a
//	                      proven bound that eval's rank count settles or
//	                      rescores; exact scores from the AVX2 twins),
//	                      AVX2 assembly kernels with four per YMM register,
//	                      the Go kernels everywhere else
//	internal/cpu          the CPUID/XGETBV check that fixes the lane once
//	                      per process; -tags purego turns it off
//	internal/kp           Knowledge Persistence baseline
//	internal/synth        typed synthetic KG generator (dataset substitute)
//	internal/experiments  regenerates every table and figure of the paper
//	internal/{kg,sparse,sample,stats,par}  substrates; sparse.Mul is the
//	                      one product kernel (a score matrix is the product
//	                      of the transposed operands, born column-major);
//	                      par is the one worker pool: sparse.Mul,
//	                      recommender.BuildStatic and the evaluation pass
//	                      run on it, with results independent of the core
//	                      count
//
// See README.md for a tour, including the kgevald server walkthrough.
package kgeval
