package kgc

import "math"

// BatchScorer is a model's block-wise evaluation lane: it scores many
// directed queries that share one candidate pool. A block is built once —
// BeginBlock, then AddTails/AddHeads relation by relation, in the order the
// scores are wanted — and scored against any number of candidate slices (a
// large pool in strips: the score buffer is block × strip), each walked in
// small tiles of rows that every query meets while hot. It is not a Model:
// per-query scoring belongs to the model, which NewBatchScorer wraps.
//
// Batch scoring is an execution strategy, not a different protocol: at
// float64, a block's scores must be bit-identical to the model's own
// ScoreTails/ScoreHeads for the same queries. The evaluation engine ranks raw
// float scores by equality; its test oracle scores through the model's
// per-query methods. The one exception is RankBlock, which is for ranking
// alone: its scores may miss ScoreBlock's by a stated Bound, and what that
// Bound cannot settle is settled with Rescore.
type BatchScorer interface {
	// BeginBlock empties the block and reserves room for n queries.
	BeginBlock(n int)
	// AddTails appends the queries (hs[i], r, ?) to the block.
	AddTails(hs []int32, r int32)
	// AddHeads appends the queries (?, r, ts[i]) to the block.
	AddHeads(ts []int32, r int32)
	// ScoreBlock writes the score of the block's i-th query against cands[j]
	// into out[i*len(cands)+j]. len(out) must be block queries × len(cands).
	ScoreBlock(cands []int32, out []float64)
	// RankBlock is ScoreBlock for a rank: each score of query i it writes
	// that is a number lies within bounds[i] of what ScoreBlock writes, and a
	// NaN may stand for any score. len(bounds) must be at least the block's
	// queries. Where every Bound is zero the scores are ScoreBlock's bits.
	RankBlock(cands []int32, out []float64, bounds []Bound)
	// Rescore writes the block's i-th query's ScoreBlock scores against cands
	// into out[:len(cands)]: what a rank turns to where a Bound cannot settle
	// a comparison.
	Rescore(i int, cands []int32, out []float64)
	// ScoreAnswer is the score of the block's i-th query against entity e,
	// its true answer, read off the query the block holds. At float64 it is
	// bit for bit the model's ScoreTriple (tail query) or its ScoreHeads over
	// the one id e (head query): for a built-in model, a base plus two query
	// builders, both run the builder and its base's Go tile kernel. At
	// reduced precision e's row comes from the store the candidates' do, so
	// it is what ScoreBlock writes for e. It leaves the block as it was.
	ScoreAnswer(i int, e int32) float64
	// ScoreTailsBatch is a block of tail queries in one call: the score of
	// (hs[i], r, cands[j]) goes into out[i*len(cands)+j].
	ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64)
}

// batchAdapter is how a plain third-party Model — one that does not
// implement this package's native contract — runs through the block
// executor: it replays the model's own ScoreTails/ScoreHeads for each query
// of the block over every candidate slice, at float64, whatever precision
// and tile were asked for. The evaluation framework is model-agnostic (the
// paper's Figure 1 contract), so this is a supported input, not a fallback
// awaiting deletion; eval's oracle gate runs it.
type batchAdapter struct {
	Model
	block []directedQuery
	oneID [1]int32 // ScoreAnswer's one-head pool: both escape through the Model call
	oneS  [1]float64
}

// directedQuery names one query of a block: (e, r, ?) when tail, else (?, r, e).
type directedQuery struct {
	e, r int32
	tail bool
}

func (a *batchAdapter) BeginBlock(n int)             { a.block = Grow(a.block, n)[:0] }
func (a *batchAdapter) AddTails(hs []int32, r int32) { a.block = addQueries(a.block, hs, r, true) }
func (a *batchAdapter) AddHeads(ts []int32, r int32) { a.block = addQueries(a.block, ts, r, false) }

func addQueries(block []directedQuery, es []int32, r int32, tail bool) []directedQuery {
	for _, e := range es {
		block = append(block, directedQuery{e, r, tail})
	}
	return block
}

func (a *batchAdapter) ScoreBlock(cands []int32, out []float64) {
	nc := len(cands)
	for i, q := range a.block {
		if row := out[i*nc : (i+1)*nc]; q.tail {
			a.ScoreTails(q.e, q.r, cands, row)
		} else {
			a.ScoreHeads(q.r, q.e, cands, row)
		}
	}
}

// RankBlock is ScoreBlock: a third-party model's scores are its own.
func (a *batchAdapter) RankBlock(cands []int32, out []float64, bounds []Bound) {
	a.ScoreBlock(cands, out)
	clear(bounds[:len(a.block)])
}

// Rescore replays query i's own ScoreTails or ScoreHeads over cands.
func (a *batchAdapter) Rescore(i int, cands []int32, out []float64) {
	if q := a.block[i]; q.tail {
		a.ScoreTails(q.e, q.r, cands, out[:len(cands)])
	} else {
		a.ScoreHeads(q.r, q.e, cands, out[:len(cands)])
	}
}

// ScoreAnswer replays what a third-party model has always seen for a true
// triple: ScoreTriple for a tail query, ScoreHeads over the one id for a head
// query (reciprocal-relation models score their candidates that way too).
func (a *batchAdapter) ScoreAnswer(i int, e int32) float64 {
	q := a.block[i]
	if q.tail {
		return a.ScoreTriple(q.e, q.r, e)
	}
	a.oneID[0] = e
	a.ScoreHeads(q.r, q.e, a.oneID[:], a.oneS[:])
	return a.oneS[0]
}

func (a *batchAdapter) ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64) {
	a.BeginBlock(len(hs))
	a.AddTails(hs, r)
	a.ScoreBlock(cands, out)
}

// The tile micro-kernels below define the scoring lane's arithmetic. Tiling
// only reorders the (query, candidate) iteration; each score remains one
// sequential reduction, so results are bit-identical to the per-query path at
// any tile size.
//
// storeScorer.score feeds them one tile of candidate rows at a time — a
// tile-sized buffer the store copied or dequantized the rows into
// (store.Gather) — so they are the same code at every precision.
// Each scores every query in qs against candidate rows j0..j1 of the pool,
// whose vectors are the rows of tbuf (local row t ↔ candidate j0+t),
// writing out[i*nc+j].
//
// They are one of three lanes. Where the process has AVX2 (amd64, not built
// with -tags purego) each kernel has an assembly twin in tile_amd64.s that
// puts four candidates in the lanes of a vector register and otherwise does
// what the code below does, operation for operation, so its scores have the
// same bits; where it also has AVX-512F the L1 kernel has a second twin
// there with eight candidates per register, the same operations in each
// lane. storeScorer.score then sends whole groups of four candidates to the
// installed twin and only the sub-group tails here. Everywhere else these
// kernels score everything. Either way they are the definition: every twin
// the CPU can run is tested against them with == on the bits
// (tile_vec_test.go), and they against the gather oracle
// (tile_lane_test.go). The 512-bit lane's three certified float32 kernels
// (an FMA dot product, an L1 sum of max(q, c) and RotatE's VRSQRT14PS root)
// serve RankBlock alone, and are tested against these within certBound
// (tile_cert_test.go).
//
// Four candidate rows are scored in flight per step: their accumulator
// chains are independent, hiding the FP add latency that serializes a lone
// running sum. The interleaving only changes which scores progress together
// — each individual score remains the same sequential Σ_k reduction as the
// model's per-query loop, so results stay bit-identical to it. The
// [:len(q)] re-slices let the compiler elide bounds checks in the
// accumulation loop.

// scoreDotTile computes out[i*nc+j] = dot(qs[i], cand_j) for the models
// whose score is a query-vector/candidate-vector dot product (DistMult,
// ComplEx, RESCAL, TuckER, ConvE). It also builds TuckER's and RESCAL's head
// queries q = M·t for a d×d matrix M: one query t scored against the d rows
// of M as candidates, scoreDotTile(t, M, d, 0, d, d, q). It is as fast as
// scalar Go gets — one multiply-add per cycle, the machine's measured scalar
// FMA roofline, 0.24–0.31 ns per candidate·dim on an L1-resident tile — and
// its AVX2 twin runs at 0.08–0.10, the 512-bit lane's FMA kernel, for
// ranks, at 0.032–0.035 (its floor, one ZMM FMA per 0.20–0.22 ns, is
// 0.025–0.027).
func scoreDotTile(qs, tbuf []float64, dim, j0, j1, nc int, out []float64) {
	nq := len(qs) / dim
	for i := 0; i < nq; i++ {
		q := qs[i*dim : (i+1)*dim]
		row := out[i*nc : (i+1)*nc]
		j := j0
		for ; j+4 <= j1; j += 4 {
			t := (j - j0) * dim
			c0 := tbuf[t : t+dim][:len(q)]
			c1 := tbuf[t+dim : t+2*dim][:len(q)]
			c2 := tbuf[t+2*dim : t+3*dim][:len(q)]
			c3 := tbuf[t+3*dim : t+4*dim][:len(q)]
			var s0, s1, s2, s3 float64
			for k, qk := range q {
				s0 += qk * c0[k]
				s1 += qk * c1[k]
				s2 += qk * c2[k]
				s3 += qk * c3[k]
			}
			row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			t := (j - j0) * dim
			row[j] = dot(q, tbuf[t:t+dim])
		}
	}
}

// scoreL1Tile computes out[i*nc+j] = -Σ_k |qs[i][k] - cand_j[k]| (TransE).
// math.Abs is sign-symmetric, so one kernel serves both directions even
// though a head query's score is ‖c − q‖₁, the difference the other way.
//
// In Go this kernel is at its floor; do not retry the following. math.Abs
// is not an intrinsic on amd64 — the sign mask is applied through an
// XMM→GPR→XMM round trip — which is why it costs 0.64–0.74 ns per
// candidate·dim on an L1-resident tile against 0.24–0.31 for the dot
// kernel. Writing the absolute value as max(d, -d) measured 1.4× slower and
// as a branch 6× slower, both bit-identical. Its vector twins clear the
// sign with one VANDPD (VPANDQ at 512 bits) and run at 0.11–0.13 and 0.08;
// the 512-bit lane's certified kernel, for ranks, sums max(q, c) instead
// (one operation fewer a dim) and runs at 0.07.
func scoreL1Tile(qs, tbuf []float64, dim, j0, j1, nc int, out []float64) {
	nq := len(qs) / dim
	for i := 0; i < nq; i++ {
		q := qs[i*dim : (i+1)*dim]
		row := out[i*nc : (i+1)*nc]
		j := j0
		for ; j+4 <= j1; j += 4 {
			t := (j - j0) * dim
			c0 := tbuf[t : t+dim][:len(q)]
			c1 := tbuf[t+dim : t+2*dim][:len(q)]
			c2 := tbuf[t+2*dim : t+3*dim][:len(q)]
			c3 := tbuf[t+3*dim : t+4*dim][:len(q)]
			var s0, s1, s2, s3 float64
			for k, qk := range q {
				s0 += math.Abs(qk - c0[k])
				s1 += math.Abs(qk - c1[k])
				s2 += math.Abs(qk - c2[k])
				s3 += math.Abs(qk - c3[k])
			}
			row[j], row[j+1], row[j+2], row[j+3] = -s0, -s1, -s2, -s3
		}
		for ; j < j1; j++ {
			cv := tbuf[(j-j0)*dim : (j-j0+1)*dim]
			s := 0.0
			for k := 0; k < dim; k++ {
				s += math.Abs(q[k] - cv[k])
			}
			row[j] = -s
		}
	}
}

// cmod is the complex modulus |re + i·im| every RotatE code path shares —
// the tile kernel, the per-query methods and the training gradient — so
// that they agree bit for bit. It is a plain square root of the sum of
// squares: the overflow-safe hypotenuse in package math rescales first (a
// divide on top of the square root) to guard magnitudes near 1e154, and
// embedding differences are O(1). The float64 conversions keep the two
// products from being fused into the add on targets that would, so the
// value does not depend on the platform.
func cmod(re, im float64) float64 {
	return math.Sqrt(float64(re*re) + float64(im*im))
}

// scoreRotTile computes out[i*nc+j] = -Σ_k |qs[i][k] - cand_j[k]| over
// complex moduli (RotatE), with vectors in the [re..., im...] layout of
// half complex dims. The modulus is sign-symmetric like Abs, so one kernel
// serves both directions. The square roots do not pipeline as deeply as the
// dot kernel's multiply-adds, so this kernel is sqrt-bound, not add-bound
// (1.2–1.3 ns per candidate·dim), and so is its AVX2 twin on the divider
// (VSQRTPD, 0.64–0.66). The 512-bit lane's kernel for ranks works in
// float32 and takes the root from VRSQRT14PS alone instead, within 2⁻¹⁴ of
// it, at 0.057–0.060.
func scoreRotTile(qs, tbuf []float64, dim, j0, j1, nc int, out []float64) {
	half := dim / 2
	nq := len(qs) / dim
	for i := 0; i < nq; i++ {
		q := qs[i*dim : (i+1)*dim]
		qre, qim := q[:half], q[half:][:half]
		row := out[i*nc : (i+1)*nc]
		j := j0
		for ; j+4 <= j1; j += 4 {
			t := (j - j0) * dim
			c0 := tbuf[t : t+dim][:len(q)]
			c1 := tbuf[t+dim : t+2*dim][:len(q)]
			c2 := tbuf[t+2*dim : t+3*dim][:len(q)]
			c3 := tbuf[t+3*dim : t+4*dim][:len(q)]
			var s0, s1, s2, s3 float64
			for k, re := range qre {
				im := qim[k]
				s0 += cmod(re-c0[k], im-c0[half+k])
				s1 += cmod(re-c1[k], im-c1[half+k])
				s2 += cmod(re-c2[k], im-c2[half+k])
				s3 += cmod(re-c3[k], im-c3[half+k])
			}
			row[j], row[j+1], row[j+2], row[j+3] = -s0, -s1, -s2, -s3
		}
		for ; j < j1; j++ {
			cv := tbuf[(j-j0)*dim : (j-j0+1)*dim]
			s := 0.0
			for k, re := range qre {
				s += cmod(re-cv[k], qim[k]-cv[half+k])
			}
			row[j] = -s
		}
	}
}
