//go:build amd64 && !purego

package kgc

import "kgeval/internal/cpu"

// The assembly kernels of tile_amd64.s. Each scores nq queries of dim values
// (qs) against the n candidates of a candidate-minor tile (cols, n a
// positive multiple of four) and writes query i's scores to out[i*nc:][:n].
// They trust their arguments; vecTile is the only caller. The AVX2 kernels
// and l1TileAVX512 give every score the Go kernel's bits; dotTileFMA512 and
// rotTileApprox512 give it within certBound, for ranks only.

//go:noescape
func dotTileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func l1TileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func rotTileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func l1TileAVX512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func dotTileFMA512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func rotTileApprox512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

// The assembly row-accumulate of rowacc_amd64.s: rowAccGo over n outputs
// and nrows rows. It trusts its arguments; vecRowAcc is the only caller.
//
//go:noescape
func rowAccAVX2(out *float64, n int, c *float64, nrows int, rows *float64, stride int, skipZero bool)

// init lists the vector lanes this CPU runs, narrowest first, and installs
// the widest. The 512-bit lane scores L1 with its own twin and the dot and
// RotatE kernels with the AVX2 twins, which keep the bits; its rank path
// runs the FMA dot kernel and RotatE's approximate root. The row-accumulate
// under the query builders stays 256-bit on both lanes.
func init() {
	if !cpu.AVX2 {
		return
	}
	avx2 := vecLane{name: "avx2", kernels: [numKinds]tileFunc{
		kindDot: vecTile(dotTileAVX2, 1),
		kindL1:  vecTile(l1TileAVX2, 1),
		kindRot: vecTile(rotTileAVX2, 2),
	}}
	vecLanes = []vecLane{avx2}
	if cpu.AVX512 {
		vecLanes = append(vecLanes, vecLane{name: "avx512",
			kernels: [numKinds]tileFunc{
				kindDot: avx2.kernels[kindDot],
				kindL1:  vecTile(l1TileAVX512, 1),
				kindRot: avx2.kernels[kindRot],
			},
			cert: [numKinds]tileFunc{
				kindDot: vecTile(dotTileFMA512, 1),
				kindRot: vecTile(rotTileApprox512, 2),
			},
		})
	}
	widest := vecLanes[len(vecLanes)-1]
	vecKernels, certKernels = widest.kernels, widest.cert
	rowAcc = vecRowAcc
}

// vecRowAcc gives rowAccAVX2 rowAccGo's signature and, like vecTile, is the
// memory-safety boundary in front of it: the slice expression panics, as
// rowAccGo's own would, on rows shorter than the last row it reads.
//
// It hands the kernel tileBytes of rows per call. The kernel sweeps its rows
// once per group of outputs, so rows that fit in L1 come from memory once,
// where a whole matrix larger than L2 (TuckER's core, ConvE's FC at dim 256)
// would be fetched again, in strided strips, for every group. Each output
// still adds its rows in ascending u, call after call.
func vecRowAcc(out, c, rows []float64, stride int, skipZero bool) {
	if len(out) == 0 || len(c) == 0 {
		return
	}
	if stride < 0 {
		panic("kgc: row-accumulate with a negative stride")
	}
	rows = rows[:(len(c)-1)*stride+len(out)]
	per := max(1, tileBytes/(8*max(stride, len(out))))
	for u := 0; u < len(c); u += per {
		rowAccAVX2(&out[0], len(out), &c[u], min(per, len(c)-u), &rows[u*stride], stride, skipZero)
	}
}

// vecTile gives an assembly kernel the Go tile kernels' signature and is the
// memory-safety boundary in front of it: the slice expressions below panic,
// as the Go kernels' own would, on query, tile or score storage shorter than
// the shape asks for, so the assembly only ever sees pointers with the
// extents it will touch. minDim is the fewest dims the kernel's inner loop
// can count down from (RotatE needs one complex dim).
func vecTile(kernel func(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int), minDim int) tileFunc {
	return func(qs, cols []float64, dim, j0, j1, nc int, out []float64) {
		nq, n := len(qs)/dim, j1-j0
		if dim < minDim || n <= 0 || n%4 != 0 || j0 < 0 || j1 > nc {
			panic("kgc: vector tile kernel called off its shape: whole groups of four candidates inside the pool")
		}
		cols, out = cols[:n*dim], out[:nq*nc]
		if nq > 0 {
			kernel(&qs[0], nq, &cols[0], dim, n, &out[j0], nc)
		}
	}
}
