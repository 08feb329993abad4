package kgc

import (
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
// (tile_amd64.go), with the widest lane of vecLanes, and never after: the
// scoring lane is a property of the process, not something a caller selects.
// Everywhere else — other architectures, the purego build tag, older x86 —
// it stays nil and the Go kernels score everything.
var vecKernels [numKinds]tileFunc

// vecLane is one set of vector twins of the Go tile kernels, named as Kernel
// reports it.
type vecLane struct {
	name    string
	kernels [numKinds]tileFunc
}

// vecLanes lists every vector lane this CPU can run, narrowest first: avx2,
// then avx512 where the CPU has it. The last is installed in vecKernels; the
// tests hold each of them to the Go kernels.
var vecLanes []vecLane

// rowAcc is the query builders' row-accumulate: rowAccGo, or — installed
// with vecKernels, by the same build on the same CPUs — its AVX2 twin
// (rowacc_amd64.s), which gives every output the same bits.
var rowAcc = rowAccGo

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
// dot and L1 tile kernels run (RotatE's tile kernel and the query builders'
// row-accumulate stay 256-bit), "avx2" when the 256-bit tile kernels and
// row-accumulate run, "go" otherwise. All three produce the same scores,
// bit for bit; the name is for traces and logs, so a timing says which code
// produced it. (A plain third-party Model is scored through its own methods
// either way.)
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
	img  []float64 // ConvE stacked input image of the query being built
	feat []float64 // ConvE flattened conv features of the query being built

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
		return &storeScorer{
			m:    bn,
			st:   b.stores.get(b.ent, opts.Precision),
			bias: b.bias,
			prec: opts.Precision,
			tile: tile,
			kern: goKernels[b.kind],
			vec:  vecKernels[b.kind],
		}
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
	sc   scratch

	// block names the block's queries: ScoreAnswer needs the direction and,
	// unrouted, (h, r).
	block []directedQuery
	oneC  [1]int32 // ScoreAnswer's one-candidate pool and its score
	oneS  [1]float64
}

// BeginBlock empties the block's query vectors, with room for n.
func (s *storeScorer) BeginBlock(n int) {
	s.sc.qs = Grow(s.sc.qs, n*s.m.Dim())[:0]
	s.block = Grow(s.block, n)[:0]
}

// AddTails builds the query vectors of (hs[i], r, ?) after the block's last.
func (s *storeScorer) AddTails(hs []int32, r int32) {
	s.m.buildTailQueries(hs, r, s.room(len(hs)), &s.sc)
	s.block = addQueries(s.block, hs, r, true)
}

// AddHeads builds the query vectors of (?, r, ts[i]) after the block's last.
func (s *storeScorer) AddHeads(ts []int32, r int32) {
	s.m.buildHeadQueries(ts, r, s.room(len(ts)), &s.sc)
	s.block = addQueries(s.block, ts, r, false)
}

// room adds storage for n query vectors to the block and returns it.
func (s *storeScorer) room(n int) []float64 {
	old, add := len(s.sc.qs), n*s.m.Dim()
	s.sc.qs = slices.Grow(s.sc.qs, add)[:old+add]
	return s.sc.qs[old:]
}

// ScoreBlock scores the block's queries against cands.
func (s *storeScorer) ScoreBlock(cands []int32, out []float64) { s.score(s.sc.qs, cands, out) }

// ScoreAnswer scores block query i against e from the vector the block holds,
// through score's one-candidate path: what ScoreBlock writes for e, and at
// float64 what the model's ScoreHeads over [e] (head query) or routed
// ScoreTriple returns, since those run the same builder and the same Go
// kernel. A tail answer of a model that keeps its own float64 ScoreTriple
// goes there.
func (s *storeScorer) ScoreAnswer(i int, e int32) float64 {
	if q := s.block[i]; q.tail && !s.routeTriple() {
		return s.m.ScoreTriple(q.e, q.r, e)
	}
	dim := s.m.Dim()
	s.oneC[0] = e
	s.score(s.sc.qs[i*dim:(i+1)*dim], s.oneC[:], s.oneS[:])
	return s.oneS[0]
}

// ScoreTailsBatch scores (hs[i], r, cands[j]) into out[i*len(cands)+j].
func (s *storeScorer) ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64) {
	s.BeginBlock(len(hs))
	s.AddTails(hs, r)
	s.ScoreBlock(cands, out)
}

// score runs every query in qs over cands one kernel tile at a time, then
// adds the per-entity bias when the model has one. The only candidate state
// it ever holds is one tile in sc.tbuf, which stays L1-resident while the
// queries stream over it.
//
// The vector kernels take whole groups of four candidates. What a tile has
// beyond its last whole group — at most three candidates at the end of a
// pool, or the single candidate of a ScoreAnswer — goes through the Go
// kernel, which gives a score the same bits, so where the split falls never
// shows in out.
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
	if s.bias != nil {
		nq := len(qs) / dim
		for i := 0; i < nq; i++ {
			row := out[i*nc : (i+1)*nc]
			for j, c := range cands {
				row[j] += s.bias.vec(c)[0]
			}
		}
	}
}

// routeTriple reports whether ScoreAnswer scores a tail answer from the
// block's vector: always at reduced precision (the answer entity must come
// from the same quantized store the batch kernels read), and at float64 only
// for models that opt in via base.viaBatch.
func (s *storeScorer) routeTriple() bool {
	return s.prec != store.Float64 || s.m.lane().viaBatch
}
