package kgc

import "kgeval/internal/kgc/store"

// tileBytes is the candidate-row budget of one kernel tile: the L1 data
// cache of the machines this runs on.
const tileBytes = 32 << 10

// TileFor picks the batch-kernel candidate tile for a (pool size, dim,
// precision) shape. The tile is the number of candidate rows kept hot
// across the queries of a block: too small wastes the amortization (each
// row is fetched — and copied, transposed or dequantized into the tile
// buffer — for fewer (query, row) products in flight), too
// large spills the tile out of L1 and every query re-streams it from
// L2/memory.
//
// The tile is sized to tileBytes of float64 rows, rounded down to a
// multiple of 4 — the Go kernels' four-row step and the vector kernels'
// four-candidate register — and clamped to [4, 64]. An earlier per-dim
// lookup table, with separate Int8 rows, was tuned for a lane that re-read
// raw int8 rows next to a pool-sized block; on the tile-fed lane no entry of
// it beats this formula outside run-to-run noise on
// BenchmarkScoreDotBatchTile at any dim from 32 to 512, at float64 or int8.
// The sweep was repeated on the AVX2 lane, whose widest step takes 32
// candidates at once: the formula's tile is the fastest or within noise of
// it at every dim (at dim 256, 16 rows beat 24, 32, 48 and 64 by 15–35 %).
// On the 512-bit lane two sweeps put 32 rows ahead of the formula's 64 at
// dim 64 (float64, ~25 %) and 16–32 rows ahead of its 8 at dim 512, where
// 8 rows leave the kernel two chains in flight; but a [16, 32] clamp on that
// lane made no full-ranking pass of kgebench faster (its dim-64 ConvE and
// TuckER passes ran a few percent slower), so every lane shares the formula.
// Every precision hands the kernel the same float64 tile, so the precision
// does not enter; the parameter stays for callers.
func TileFor(pool, dim int, _ store.Precision) int {
	tile := tileBytes / (max(dim, 1) * 8)
	tile -= tile % 4
	tile = max(4, min(tile, 64))
	// A tile larger than the pool is just the pool; no need to exceed it.
	if pool > 0 && tile > pool {
		tile = pool
	}
	return tile
}
