package kgc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc/store"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// perCandDim reports the benchmark's cost per (query, candidate, dim) — the
// unit the kernels are compared in. The machine's scalar FMA roofline
// (bench/roofline.go) bounds the Go lane in this unit, not the vector lane.
func perCandDim(b *testing.B, nq, nc, dim int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nq*nc*dim), "ns/cand·dim")
}

// benchLanes runs fn once per scoring lane this CPU can run, as
// sub-benchmarks "go" and every lane of vecLanes ("avx2", then "avx512"
// where the CPU has it), so one binary reports each step and a host without
// a vector lane reports the lane it runs. The Go lane's kernels are nil. A
// lane with approximate kernels runs once more as "<lane>-rank", rank set:
// what its rank path (RankBlock) runs.
func benchLanes(b *testing.B, fn func(b *testing.B, lane vecLane, rank bool)) {
	for _, lane := range append([]vecLane{{name: "go"}}, vecLanes...) {
		b.Run(lane.name, func(b *testing.B) { fn(b, lane, false) })
		if slices.ContainsFunc(lane.cert[:], func(f rankFunc) bool { return f != nil }) {
			b.Run(lane.name+"-rank", func(b *testing.B) { fn(b, lane, true) })
		}
	}
}

// benchPool is a sorted pool of k distinct ids below n: one consecutive run
// starting a third of the way in, or a uniform sample.
func benchPool(rng *rand.Rand, n, k int, consecutive bool) []int32 {
	ids := make([]int32, k)
	if consecutive {
		lo := (n - k) / 3
		for i := range ids {
			ids[i] = int32(lo + i)
		}
		return ids
	}
	for i, id := range rng.Perm(n)[:k] {
		ids[i] = int32(id)
	}
	slices.Sort(ids)
	return ids
}

// BenchmarkScoreTile times the three tile micro-kernels alone, on every lane
// (the certified float32 dot, L1 and RotatE kernels on a -rank lane, over
// the same values rounded to float32), over one tile as the planner sizes it
// at dim 128 (TileFor: 32 rows = 32 KB) and 16 queries: the floor each model
// family's scoring can reach. The Go kernels read the tile row-major, their
// vector twins candidate-minor; the fill is not timed here
// (BenchmarkScoreBlock includes it).
func BenchmarkScoreTile(b *testing.B) {
	const nq, dim = 16, 128
	tile := TileFor(0, dim, store.Float64)
	rng := rand.New(rand.NewSource(11))
	qs, tbuf := randVec(rng, nq*dim), randVec(rng, tile*dim)
	qs32, tbuf32 := make([]float32, len(qs)), make([]float32, rankStride(tile)*dim)
	for i, v := range qs {
		qs32[i] = float32(v)
	}
	for k := range dim {
		for t := range tile {
			tbuf32[k*rankStride(tile)+t] = float32(tbuf[k*tile+t])
		}
	}
	out := make([]float64, nq*tile)
	for kind := kindDot; kind < numKinds; kind++ {
		b.Run(kind.String(), func(b *testing.B) {
			benchLanes(b, func(b *testing.B, lane vecLane, rank bool) {
				b.ReportAllocs()
				if rank {
					fn := lane.cert[kind]
					for i := 0; i < b.N; i++ {
						fn(qs32, tbuf32, dim, 0, tile, tile, out)
					}
					perCandDim(b, nq, tile, dim)
					return
				}
				fn := lane.kernels[kind]
				if fn == nil {
					fn = goKernels[kind]
				}
				for i := 0; i < b.N; i++ {
					fn(qs, tbuf, dim, 0, tile, tile, out)
				}
				perCandDim(b, nq, tile, dim)
			})
		})
	}
}

// BenchmarkScoreBlock times one strip of a block through the lane — tile
// walk, tile fill, kernel, and on a -rank lane the error bound — on every
// lane, at the shapes the planner produces
// at dim 128: 64 directed queries against a 512-candidate strip, of
// consecutive ids (a strip of the full protocol) and of scattered ids (a
// strip of a drawn sample); every lane fills the tile buffer one tile at a
// time either way, the Go lane row by row, the vector lanes transposed. The
// scattered strip also runs under 5 queries, the last block of a small
// relation, where the fill is least amortized — the shape every block of the
// full protocol had before blocks were shared across relations. The block's
// queries are built once, outside the timer, as they are once per sweep.
func BenchmarkScoreBlock(b *testing.B) {
	const rows, dim, strip = 12000, 128, 512
	g := &kg.Graph{NumEntities: rows, NumRelations: 4}
	m := NewDistMult(g, dim, 5)
	rng := rand.New(rand.NewSource(11))
	shapes := map[string][]int{"consecutive": {64}, "scattered": {5, 64}}
	for _, kind := range []string{"consecutive", "scattered"} {
		for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
			for _, nq := range shapes[kind] {
				cands := benchPool(rng, rows, strip, kind == "consecutive")
				hs := benchPool(rng, rows, nq, false)
				out := make([]float64, nq*strip)
				b.Run(fmt.Sprintf("%s/%v/%dx%d", kind, p, nq, strip), func(b *testing.B) {
					benchLanes(b, func(b *testing.B, lane vecLane, rank bool) {
						bs := NewBatchScorer(m, BatchOptions{Precision: p, Tile: TileFor(strip, dim, p)}).(*storeScorer)
						bs.vec, bs.cert = lane.kernels[kindDot], nil
						if rank {
							bs.cert = lane.cert[kindDot]
						}
						bs.ScoreTailsBatch(hs, 1, cands, out) // build the store and the block, size the scratch
						bounds := make([]Bound, nq)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							bs.RankBlock(cands, out, bounds)
						}
						perCandDim(b, nq, strip, dim)
					})
				})
			}
		}
	}
}

// BenchmarkBuildQueries times the query builders where a query costs more
// than scoring it against a sampled pool — ConvE's conv and FC layers,
// TuckER's core contraction and d×d products, RESCAL's d×d products —
// through the scorer: one block of 16 tail and 16 head queries of one
// relation, the relation alternating between two so that TuckER contracts
// its core once per block, as a pass does. It reports ns per query on every
// lane (benchLanes): "go" runs rowAccGo and convGo, a vector lane its
// row-accumulate (four outputs a register on avx2, eight on avx512) and the
// AVX2 conv layer. The rung under kgebench's
// kgc.score_ns_per_cand_dim.{ConvE,TuckER,RESCAL}, which includes the
// builders; at dim 256 TuckER's core is 134 MB.
func BenchmarkBuildQueries(b *testing.B) {
	const nq = 16
	g := &kg.Graph{NumEntities: 256, NumRelations: 2}
	es := benchPool(rand.New(rand.NewSource(11)), g.NumEntities, nq, false)
	for _, name := range []string{"ConvE", "TuckER", "RESCAL"} {
		for _, dim := range []int{64, 256} {
			m, err := New(name, g, dim, 5)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/dim%d", name, dim), func(b *testing.B) {
				benchLanes(b, func(b *testing.B, lane vecLane, rank bool) {
					if rank {
						b.Skip("the rank path builds its queries as the lane does")
					}
					defer func(r rowAccFunc, c convFunc) { rowAcc, conv = r, c }(rowAcc, conv)
					rowAcc, conv = rowAccGo, convGo
					if lane.rowAcc != nil {
						rowAcc, conv = lane.rowAcc, lane.conv
					}
					bs := NewBatchScorer(m, BatchOptions{})
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r := int32(i % 2)
						bs.BeginBlock(2 * nq)
						bs.AddTails(es, r)
						bs.AddHeads(es, r)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*nq), "ns/query")
				})
			})
		}
	}
}

// BenchmarkScoreDotBatchTile sweeps the kernel tile across embedding widths
// on a pool/chunk shape matching the evaluation planner's defaults (64
// queries, 800 scattered candidates — n_s = 10% of an 8k-entity graph), at
// the float64 store (tile rows copied, or transposed on the vector lane) and
// the int8 store (tile rows dequantized), on the lane the process runs.
// TileFor is maintained against this sweep: re-run it after kernel changes
// and check that no tile beats TileFor's outside noise.
func BenchmarkScoreDotBatchTile(b *testing.B) {
	const nq, nc, rows = 64, 800, 8000
	g := &kg.Graph{NumEntities: rows, NumRelations: 4}
	rng := rand.New(rand.NewSource(11))
	cands := benchPool(rng, rows, nc, false)
	hs := benchPool(rng, rows, nq, false)
	out := make([]float64, nq*nc)
	for _, dim := range []int{32, 64, 128, 256, 512} {
		m := NewDistMult(g, dim, 5)
		for _, p := range []store.Precision{store.Float64, store.Int8} {
			for _, tile := range []int{4, 8, 16, 24, 32, 48, 64} {
				name := fmt.Sprintf("%v/dim%d/tile%d", p, dim, tile)
				if tile == TileFor(nc, dim, p) {
					name += "*"
				}
				b.Run(name, func(b *testing.B) {
					bs := NewBatchScorer(m, BatchOptions{Precision: p, Tile: tile})
					bs.ScoreTailsBatch(hs, 1, cands, out)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						bs.ScoreTailsBatch(hs, 1, cands, out)
					}
					perCandDim(b, nq, nc, dim)
				})
			}
		}
	}
}
