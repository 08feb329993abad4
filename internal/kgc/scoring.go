package kgc

import (
	"math"
	"slices"
	"sync"

	"kgeval/internal/kgc/store"
)

// BatchOptions selects the execution parameters of a batch scoring lane.
type BatchOptions struct {
	// Precision is the entity-store precision candidate (and, for non-default
	// precisions, answer-side) embeddings are read at. Float64 is the
	// bit-exact reference, read from the live weight table. Float32 and Int8
	// read a copy of the entity table built beside the float64 weights,
	// which stay (query building reads them; store.CopyBytes is its size):
	// they save no memory, they trade a bounded score error for fewer bytes
	// read per pass. Every precision is copied or dequantized into the
	// scorer's tile buffer one kernel tile at a time, for the same kernel.
	// Ignored for models without a native batch lane, which always score at
	// float64.
	Precision store.Precision
	// Tile is the kernel candidate-tile size; 0, what every caller but a
	// tile sweep passes, sizes it from the model's dim (TileFor).
	Tile int
}

// base is what a built-in model states once about its scoring lane, and
// embeds: its name and dim, the entity table its candidates are rows of (with
// that table's store cache and, for ConvE, the per-entity bias added to every
// score), the tile kernel that scores a query against a candidate row, and
// what the trainer needs to know. Everything else a model is — its relation
// parameters, its query builders, its ScoreTriple and its gradient — it
// writes itself.
type base struct {
	name   string
	dim    int
	ent    *table
	bias   *table   // per-entity additive score bias (one value per row), or nil
	kind   tileKind // the tile kernel: goKernels[kind], vecKernels[kind]
	loss   Loss
	recip  bool // head queries run as tail queries of inverse relations r+|R|
	stores entStores

	// viaBatch sets ScoreAnswer to score a tail query's answer from the query
	// vector the block holds even at float64, instead of calling the model's
	// ScoreTriple. Models whose own ScoreTriple recomputes expensive
	// per-relation state (TuckER's core contraction, ConvE's conv+FC stack)
	// or allocates per call (RotatE's rotated query) opt in. Opting in
	// requires the model's ScoreTriple to be bit-identical to its ScoreTails
	// over the one candidate.
	viaBatch bool
}

func (b *base) Name() string      { return b.name }
func (b *base) Dim() int          { return b.dim }
func (b *base) defaultLoss() Loss { return b.loss }
func (b *base) reciprocal() bool  { return b.recip }
func (b *base) lane() *base       { return b }

// batchNative is the per-model contract behind the universal batch lane and
// the built-in models' per-query methods: a base plus two query builders.
// The tile walk and row access live in storeScorer, and a single query's
// candidate loop in scoreQuery, so a model writes its query once and every
// path that scores it runs that code.
type batchNative interface {
	Model
	lane() *base
	// buildTailQueries writes, for each head hs[i], the query vector q such
	// that score(hs[i], r, c) = kernel(q, c) (+ bias[c]) into
	// qs[i*Dim():(i+1)*Dim()]. qs may hold stale data from a previous block;
	// implementations must overwrite every element.
	buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch)
	// buildHeadQueries is the head-direction analogue: score(c, r, ts[i]) =
	// kernel(q, c) (+ bias[c]).
	buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch)
}

// scoreQuery is every built-in model's ScoreTails (tail: the query (e, r, ?))
// and ScoreHeads (the query (?, r, e)): the model's own query builder and
// tile kernel, so a per-query score is the batch lane's arithmetic by
// construction. The query is built in a fresh scratch — a model is shared
// by every goroutine that scores it — and each candidate is scored by the
// Go kernel over its table row, the kernels' one-candidate path, then given
// its entity bias.
func scoreQuery(m batchNative, e, r int32, tail bool, cands []int32, out []float64) {
	b := m.lane()
	var sc scratch
	q := make([]float64, b.dim)
	if one := []int32{e}; tail {
		m.buildTailQueries(one, r, q, &sc)
	} else {
		m.buildHeadQueries(one, r, q, &sc)
	}
	kern := goKernels[b.kind]
	for j, c := range cands {
		kern(q, b.ent.vec(c), b.dim, j, j+1, len(cands), out)
		if b.bias != nil {
			out[j] += b.bias.vec(c)[0]
		}
	}
}

// tileKind names one of the three tile micro-kernels of batch.go.
type tileKind uint8

const (
	kindDot tileKind = iota // scoreDotTile
	kindL1                  // scoreL1Tile
	kindRot                 // scoreRotTile
	numKinds
)

// tileFunc is the signature the Go tile kernels and their vector twins
// share; the two differ in the layout of tbuf (rows for the Go kernels,
// store.TileColumns' candidate-minor columns for the vector ones), never in
// a bit of out.
type tileFunc func(qs, tbuf []float64, dim, j0, j1, nc int, out []float64)

// goKernels holds the Go tile kernel of each kind: the definition of a
// score, and the lane wherever vecKernels is nil.
var goKernels = [numKinds]tileFunc{kindDot: scoreDotTile, kindL1: scoreL1Tile, kindRot: scoreRotTile}

// vecKernels holds the vector twin of each Go tile kernel, or nil. It is
// filled once at start-up, by the amd64 build on a CPU with AVX2
// (tile_amd64.go), with the AVX2 twins, which both vector lanes run, and
// never after: the scoring lane is a property of the process, not something
// a caller selects.
// Everywhere else — other architectures, the purego build tag, older x86 —
// it stays nil and the Go kernels score everything.
var vecKernels [numKinds]tileFunc

// certKernels holds, for each kind, the rank path's approximate kernel, or
// nil where the rank path runs the exact one. It is installed with
// vecKernels, from the widest lane; only the 512-bit lane has entries, one
// float32 kernel of each kind, sixteen candidates a register (the FMA dot
// walk, the VMAXPS L1 kernel and RotatE's VRSQRT14PS root). Its scores are
// within certBound of the Go kernel's, not equal to them: it serves
// RankBlock of a float64 scorer, and nothing that hands a score to a caller.
var certKernels [numKinds]rankFunc

// rankFunc is the signature of the rank path's float32 kernels: tileFunc's,
// over the block's queries rounded to float32 and a float32 candidate-minor
// tile of column stride rankStride(j1−j0) (store.TileColumns32). Every score
// is written widened to float64. Any j1 > j0 is a shape: the kernels store
// under a mask, so no candidate is left to the Go kernel.
type rankFunc func(qs, cols []float32, dim, j0, j1, nc int, out []float64)

// rankLanes is how many candidates a register of the rank kernels holds.
const rankLanes = 16

// rankStride is the column stride of the rank kernels' tile of n
// candidates: n rounded up to whole registers.
func rankStride(n int) int { return (n + rankLanes - 1) &^ (rankLanes - 1) }

// vecLane is what one vector lane runs beyond the exact tile kernels and the
// conv layer, which every vector lane shares (vecKernels, conv): its
// row-accumulate and the rank path's approximate kernels, named as Kernel
// reports it.
type vecLane struct {
	name   string
	cert   [numKinds]rankFunc // within certBound of goKernels, or nil
	rowAcc rowAccFunc         // the same bits as rowAccGo
}

// vecLanes lists every vector lane this CPU can run, narrowest first: avx2,
// then avx512 where the CPU has it. The last is installed in certKernels and
// rowAcc; the tests hold each of them to the Go kernels and loops.
var vecLanes []vecLane

// Bound is how far the rank path may write one query's scores from their
// definition, the Go kernel's: |written − defined| ≤ Abs + Rel·|written| for
// every written score that is a number. A NaN may stand for any score. The
// zero Bound says the scores are the definition's bits; a query no bound
// holds for has NaN scores and an infinite Abs, which settle no comparison.
type Bound struct{ Abs, Rel float64 }

// certBound is the Bound of one query's scores from kind's float32 kernel,
// over dim values a candidate: norm is the query's ‖q‖₁ (storeScorer.addRank),
// maxAbs the largest |value| of the float64 candidate rows the kernel scored
// (store.TileColumns32), maxBias the largest |bias| added after it, or 0
// without one. ok is false where no bound holds: a value large enough that a
// float32 value, product or sum could overflow, a NaN or infinity among the
// query's values, or a dim past what the proof covers. The kernels' headers
// in tile_amd64.s prove the bounds; this states them, rounded up, with
// u = 2⁻²⁴ and the factor 1 + 2⁻⁷ where the proofs have 1 + 2⁻⁸ (the rest
// covers the float64 roundings of norm and of the bound itself):
//
//   - dot: (n + 2)·u·‖q‖₁·max|c| + 2⁻¹⁵⁰·(‖q‖₁ + n·max|c| + n) over n = dim
//     products, for ‖q‖₁, max|c| and their product up to 2¹⁰⁰.
//     ‖q‖₁·max|c| is taken first, so a subnormal norm is lifted before it is
//     scaled down.
//   - L1: Abs = (3n − 1)·u·A + n·2⁻¹⁴⁹ and Rel = u over n = dim values,
//     A = ‖q‖₁ + n·max|c|, for A up to 2¹⁰⁰.
//   - a bias b added in float64 after a dot score rounds once more on both
//     sides: |fl(s+b) − fl(f+b)| ≤ Abs·(1 + 2⁻⁵³) + 2⁻⁵²/(1 − 2⁻⁵³)·|fl(f+b)|,
//     so Rel grows from 0 to 2⁻⁵¹ and the slack takes the rest; |b| ≤ 2¹⁰⁰⁰
//     keeps the sum finite. A bound with a Rel of its own (L1, RotatE) would
//     not carry over a bias that cancels the score, and is refused with one;
//     no such model has one.
//   - RotatE: Rel = 2⁻¹⁴ + (n + 4)·u and Abs = u·(‖q‖₁ + 2n·max|c|) + n·2⁻⁷⁴
//     over n = dim/2 complex dims, for ‖q‖₁ and max|c| up to 2⁶⁰: the root's
//     2⁻¹⁴, the float32 sum's n·u, and the rounding of each value to float32,
//     which is absolute in the differences a modulus takes.
//
// Every dim is at most 2¹⁴, so that n·u ≤ 2⁻¹⁰.
func certBound(kind tileKind, dim int, norm, maxAbs, maxBias float64) (b Bound, ok bool) {
	const slack = 1 + 0x1p-7
	n := float64(dim)
	if dim > 1<<14 {
		return Bound{}, false
	}
	switch kind {
	case kindDot:
		if !(norm <= 0x1p100 && maxAbs <= 0x1p100 && norm*maxAbs <= 0x1p100) {
			return Bound{}, false
		}
		b.Abs = norm*maxAbs*((n+2)*0x1p-24*slack) + (norm+n*maxAbs+n)*(0x1p-150*slack)
	case kindL1:
		a := norm + n*maxAbs
		if !(a <= 0x1p100) {
			return Bound{}, false
		}
		b.Abs = a*((3*n-1)*0x1p-24*slack) + n*(0x1p-149*slack)
		b.Rel = 0x1p-24 * slack
	case kindRot:
		h := float64(dim / 2)
		if !(norm <= 0x1p60 && maxAbs <= 0x1p60) {
			return Bound{}, false
		}
		b.Abs = (norm+2*h*maxAbs)*(0x1p-24*slack) + h*0x1p-74
		b.Rel = 0x1p-14 + (h+4)*0x1p-24*slack
	}
	switch {
	case maxBias == 0:
		return b, true
	case b.Rel != 0 || !(maxBias <= 0x1p1000):
		return Bound{}, false
	}
	b.Rel = 0x1p-51
	return b, true
}

// rowAcc is the query builders' row-accumulate: rowAccGo, or — installed
// with vecKernels, from the same lane — its AVX2 or AVX-512F twin
// (rowacc_amd64.s), which gives every output the same bits.
var rowAcc rowAccFunc = rowAccGo

// rowAccFunc is the signature rowAccGo and its vector twins share.
type rowAccFunc func(out, c, rows []float64, stride int, skipZero bool)

// rowAccGo adds c[u]·rows[u*stride:][:len(out)] into out for u = 0, 1, …
// in turn, passing over a zero c[u] (+0 or −0; NaN is not zero) when
// skipZero is set. Every output sums its terms one at a time in ascending u,
// a rounded multiply then a rounded add each, so this loop defines the
// arithmetic of ConvE's FC layer, TuckER's core contraction and TuckER's and
// RESCAL's tail queries. out must not overlap rows.
func rowAccGo(out, c, rows []float64, stride int, skipZero bool) {
	for u, cu := range c {
		if skipZero && cu == 0 {
			continue
		}
		row := rows[u*stride:][:len(out)]
		for k := range out {
			out[k] += cu * row[k]
		}
	}
}

// Kernel names the scoring lane of this process: "avx512" when the 512-bit
// kernels run, "avx2" when the 256-bit tile kernels and row-accumulate run,
// "go" otherwise. Every lane gives a score the same bits wherever a score is
// handed out (ScoreTails, ScoreHeads, ScoreTriple, the BatchScorer's
// ScoreTailsBatch, ScoreAnswer and Rescore): on both vector
// lanes these run the AVX2 twins, in float64. What the lanes may not share
// is the rank path's RankBlock: on the 512-bit lane it scores in float32,
// sixteen candidates a register, with a certified kernel of every kind —
// the FMA dot kernel (four queries at a time), an L1 kernel that sums
// max(q, c) and takes the query's and each candidate's sums off at the
// store, and RotatE's root as one VRSQRT14PS — each within a Bound that
// eval's rank count turns into the ranks the exact scores give. The query
// builders run the lane's own row-accumulate and, on both vector lanes, the
// AVX2 conv layer, with the Go loops' bits. The name is for traces and
// logs, so a timing says which code produced it. (A plain third-party Model
// is scored through its own methods either way.)
func Kernel() string {
	if n := len(vecLanes); n > 0 {
		return vecLanes[n-1].name
	}
	return "go"
}

// scratch holds one scorer's reusable buffers. Sizes are high-water marks:
// buffers grow to the largest block seen and are reused verbatim after.
// None of them scales with the candidate pool.
type scratch struct {
	tbuf []float64 // one kernel tile of candidates: columns (vector lanes) or rows (Go lane)
	qs   []float64 // query vectors, one per block query

	// The rank path's float32 tile (store.TileColumns32) and the block's
	// query vectors rounded to float32 once, as they are added.
	tbuf32 []float32
	qs32   []float32
	// The per-entity biases of a strip's candidates (ConvE), gathered once
	// for all of its queries: one value per candidate of the strip.
	bias []float64

	img  []float64 // ConvE stacked input image of the query being built
	feat []float64 // ConvE flattened conv features of the query being built

	// ConvE's conv layer and output batch-norm divisors, laid out once for
	// all of a call's queries.
	conv  convWeights
	fcDev []float64

	// TuckER's relation matrix M_r = W ×₂ r, cached across the calls made
	// for one relation of a block (tails, trues and heads all share it).
	relMat   []float64
	relMatR  int32
	relMatOK bool
}

// Grow returns buf with length n, reallocating only when its capacity is
// short — the one way this package and its callers size reusable scratch.
// The contents are unspecified.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// numPrec mirrors the store package's precision count.
const numPrec = 3

// entStores lazily builds and caches a model's entity store, one per
// precision. The Float64 store aliases the live weight table (always
// current); Float32/Int8 stores snapshot the weights at first use — fit a
// model before evaluating it at reduced precision.
type entStores struct {
	mu sync.Mutex
	s  [numPrec]*store.Store
}

func (c *entStores) get(t *table, p store.Precision) *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.s[p]; st != nil {
		return st
	}
	st, err := store.FromRows(t.w, len(t.w)/t.dim, t.dim, p)
	if err != nil {
		// Unreachable: a table's shape is internally consistent.
		panic("kgc: building entity store: " + err.Error())
	}
	c.s[p] = st
	return st
}

// NewBatchScorer returns a batch lane for m, the one way to get one. Models
// implementing the native contract (all seven built-in models) get a
// store-backed scorer at opts' precision, its tile sized from the model's
// dim; any other Model is wrapped in batchAdapter, which ignores opts.
//
// The returned scorer owns reusable scratch buffers and is NOT safe for
// concurrent use: create one per worker goroutine. Scorers for the same
// model share the underlying (immutable) entity store — at Float64 the live
// weight table itself — so per-worker creation is cheap after the first.
// Which kernels the scorer runs (Kernel) is not the caller's choice and does
// not change a score.
func NewBatchScorer(m Model, opts BatchOptions) BatchScorer {
	if bn, ok := m.(batchNative); ok {
		b := bn.lane()
		tile := opts.Tile
		if tile <= 0 {
			tile = TileFor(0, b.dim, opts.Precision)
		}
		s := &storeScorer{
			m:    bn,
			st:   b.stores.get(b.ent, opts.Precision),
			bias: b.bias,
			prec: opts.Precision,
			tile: tile,
			kern: goKernels[b.kind],
			vec:  vecKernels[b.kind],
		}
		if opts.Precision == store.Float64 {
			// The rank path's fill rounds a float64 table's rows to float32
			// and knows their largest |value| (store.TileColumns32); a
			// reduced-precision pass trades bytes, not arithmetic, and ranks
			// from its exact kernels.
			s.cert = certKernels[b.kind]
		}
		return s
	}
	return &batchAdapter{Model: m}
}

// storeScorer is the universal batch lane: it asks the model to build the
// block's query vectors, then walks each candidate slice it is handed (a
// strip of the pool, or all of it) in kernel tiles, asking the entity store
// to copy or dequantize each tile's rows into sc.tbuf and handing that to the
// model's tile micro-kernel: candidate-minor (store.TileColumns) for the
// kernel's vector twin, row by row (store.Gather) for the Go kernel. One
// instance owns the scratch: not safe for concurrent use.
type storeScorer struct {
	m    batchNative
	st   *store.Store
	bias *table
	prec store.Precision
	tile int
	kern tileFunc // the model's Go tile kernel
	vec  tileFunc // its vector twin; nil on the Go lane
	cert rankFunc // RankBlock's float32 kernel; nil where RankBlock runs vec
	sc   scratch

	// block names the block's queries: ScoreAnswer needs the direction and,
	// unrouted, (h, r).
	block []directedQuery
	oneC  [1]int32 // ScoreAnswer's one-candidate pool and its score
	oneS  [1]float64
	norms []float64 // ‖q‖₁ of each block query, where RankBlock's float32 kernel runs
}

// BeginBlock empties the block's query vectors, with room for n.
func (s *storeScorer) BeginBlock(n int) {
	s.sc.qs = Grow(s.sc.qs, n*s.m.Dim())[:0]
	s.block = Grow(s.block, n)[:0]
	if s.cert != nil {
		s.norms = Grow(s.norms, n)[:0]
		s.sc.qs32 = Grow(s.sc.qs32, n*s.m.Dim())[:0]
	}
}

// AddTails builds the query vectors of (hs[i], r, ?) after the block's last.
func (s *storeScorer) AddTails(hs []int32, r int32) {
	s.m.buildTailQueries(hs, r, s.room(len(hs)), &s.sc)
	s.block = addQueries(s.block, hs, r, true)
	s.addRank(len(hs))
}

// AddHeads builds the query vectors of (?, r, ts[i]) after the block's last.
func (s *storeScorer) AddHeads(ts []int32, r int32) {
	s.m.buildHeadQueries(ts, r, s.room(len(ts)), &s.sc)
	s.block = addQueries(s.block, ts, r, false)
	s.addRank(len(ts))
}

// room adds storage for n query vectors to the block and returns it.
func (s *storeScorer) room(n int) []float64 {
	old, add := len(s.sc.qs), n*s.m.Dim()
	s.sc.qs = slices.Grow(s.sc.qs, add)[:old+add]
	return s.sc.qs[old:]
}

// addRank readies the block's last n queries for RankBlock, where it runs
// a float32 kernel: it appends each one's ‖q‖₁ to norms, for certBound, and
// its values rounded to float32 to sc.qs32, once for every strip the block
// is ranked against.
func (s *storeScorer) addRank(n int) {
	if s.cert == nil {
		return
	}
	dim := s.m.Dim()
	for q := range slices.Chunk(s.sc.qs[len(s.sc.qs)-n*dim:], dim) {
		norm := 0.0
		for _, v := range q {
			norm += math.Abs(v)
			s.sc.qs32 = append(s.sc.qs32, float32(v))
		}
		s.norms = append(s.norms, norm)
	}
}

// scoreBlock scores the block's queries against cands, exactly.
func (s *storeScorer) scoreBlock(cands []int32, out []float64) { s.score(s.sc.qs, cands, out) }

// RankBlock is scoreBlock through the lane's float32 kernel where it has
// one, each query's scores within bounds[i] of scoreBlock's (certBound).
// It walks cands in tiles as score does, each tile's float64 rows rounded to
// float32 by the fill (store.TileColumns32) and scored by the kernel whole,
// then adds the strip's biases in float64. A query no bound holds for gets
// NaN scores and Bound{Abs: +Inf}: its caller rescores what it needs.
// Without a float32 kernel it is scoreBlock, every Bound zero.
func (s *storeScorer) RankBlock(cands []int32, out []float64, bounds []Bound) {
	bounds = bounds[:len(s.block)]
	if s.cert == nil {
		s.scoreBlock(cands, out)
		clear(bounds)
		return
	}
	dim, nc := s.m.Dim(), len(cands)
	tile := min(s.tile, nc)
	s.sc.tbuf32 = Grow(s.sc.tbuf32, rankStride(s.tile)*dim)
	maxAbs := 0.0
	for j0 := 0; j0 < nc; j0 += tile {
		j1 := min(j0+tile, nc)
		cols, m := s.st.TileColumns32(cands[j0:j1], rankStride(j1-j0), s.sc.tbuf32)
		s.cert(s.sc.qs32, cols, dim, j0, j1, nc, out)
		maxAbs = max(maxAbs, m)
	}
	maxBias := s.addBias(cands, out, len(s.block))
	kind := s.m.lane().kind
	for i := range bounds {
		b, ok := certBound(kind, dim, s.norms[i], maxAbs, maxBias)
		if !ok {
			b = Bound{Abs: math.Inf(1)}
			for j := i * nc; j < (i+1)*nc; j++ {
				out[j] = math.NaN()
			}
		}
		bounds[i] = b
	}
}

// Rescore writes block query i's scoreBlock scores against cands into out.
func (s *storeScorer) Rescore(i int, cands []int32, out []float64) {
	dim := s.m.Dim()
	s.score(s.sc.qs[i*dim:(i+1)*dim], cands, out[:len(cands)])
}

// ScoreAnswer scores block query i against e from the vector the block holds,
// through score's one-candidate path: what scoreBlock writes for e, and at
// float64 what the model's ScoreHeads over [e] (head query) or routed
// ScoreTriple returns, since those run the same builder and the same Go
// kernel. A tail answer of a model that keeps its own float64 ScoreTriple
// goes there.
func (s *storeScorer) ScoreAnswer(i int, e int32) float64 {
	if q := s.block[i]; q.tail && !s.routeTriple() {
		return s.m.ScoreTriple(q.e, q.r, e)
	}
	s.oneC[0] = e
	s.Rescore(i, s.oneC[:], s.oneS[:])
	return s.oneS[0]
}

// ScoreTailsBatch scores (hs[i], r, cands[j]) into out[i*len(cands)+j].
func (s *storeScorer) ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64) {
	s.BeginBlock(len(hs))
	s.AddTails(hs, r)
	s.scoreBlock(cands, out)
}

// score runs every query in qs over cands one kernel tile at a time, s.vec
// taking whole groups of four candidates, then adds the per-entity bias when
// the model has one. The only candidate state it ever holds is one tile in
// sc.tbuf, which stays L1-resident while the queries stream over it.
//
// What a tile has beyond its last whole group — at most three candidates at
// the end of a pool, or the single candidate of a ScoreAnswer — goes through
// the Go kernel, which gives a score the same bits as an exact twin, so where
// the split falls never shows in scoreBlock's out.
func (s *storeScorer) score(qs []float64, cands []int32, out []float64) {
	dim := s.m.Dim()
	nc := len(cands)
	tile := min(s.tile, nc)
	s.sc.tbuf = Grow(s.sc.tbuf, s.tile*dim) // a full tile, so a one-candidate call first does not size it twice
	for j0 := 0; j0 < nc; j0 += tile {
		j1 := min(j0+tile, nc)
		jv := j0 // candidates j0..jv are scored by the vector kernel
		if s.vec != nil {
			jv += (j1 - j0) &^ 3
		}
		if jv > j0 {
			s.vec(qs, s.st.TileColumns(cands[j0:jv], s.sc.tbuf), dim, j0, jv, nc, out)
		}
		if jv < j1 {
			s.st.Gather(cands[jv:j1], s.sc.tbuf)
			s.kern(qs, s.sc.tbuf, dim, jv, j1, nc, out)
		}
	}
	s.addBias(cands, out, len(qs)/dim)
}

// addBias adds each candidate's entity bias, where the model has one, to
// the nq score rows of out: the strip's biases are gathered into scratch
// once and added row by row, each score getting its one rounded add. It
// returns the largest |bias| (NaN where a bias is NaN), for certBound.
func (s *storeScorer) addBias(cands []int32, out []float64, nq int) (maxBias float64) {
	if s.bias == nil {
		return 0
	}
	nc := len(cands)
	s.sc.bias = Grow(s.sc.bias, nc)
	bias := s.sc.bias
	for j, c := range cands {
		bias[j] = s.bias.vec(c)[0]
		maxBias = max(maxBias, math.Abs(bias[j]))
	}
	for i := 0; i < nq; i++ {
		row := out[i*nc : (i+1)*nc]
		for j, b := range bias {
			row[j] += b
		}
	}
	return maxBias
}

// routeTriple reports whether ScoreAnswer scores a tail answer from the
// block's vector: always at reduced precision (the answer entity must come
// from the same quantized store the batch kernels read), and at float64 only
// for models that opt in via base.viaBatch.
func (s *storeScorer) routeTriple() bool {
	return s.prec != store.Float64 || s.m.lane().viaBatch
}
