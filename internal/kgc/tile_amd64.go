//go:build amd64 && !purego

package kgc

import "kgeval/internal/cpu"

// The assembly kernels of tile_amd64.s. Each scores nq queries of dim values
// (qs) against the n candidates of a candidate-minor tile (cols, n a
// positive multiple of four) and writes query i's scores to out[i*nc:][:n].
// They trust their arguments; vecTile is the only caller. The AVX2 kernels
// and l1TileAVX512 give every score the Go kernel's bits; the rank path's
// dotTileFMA512 (four queries at a time over a 32-candidate group),
// l1TileMax512 (Σmax(q, c) against the two sums) and rotTileApprox512
// (VRSQRT14PD alone) give it within certBound, for ranks only.

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
func l1TileMax512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func rotTileApprox512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

// The assembly row-accumulates of rowacc_amd64.s: rowAccGo over n outputs
// and nrows rows, four and eight outputs a register. They trust their
// arguments; vecRowAcc is the only caller.

//go:noescape
func rowAccAVX2(out *float64, n int, c *float64, nrows int, rows *float64, stride int, skipZero bool)

//go:noescape
func rowAccAVX512(out *float64, n int, c *float64, nrows int, rows *float64, stride int, skipZero bool)

// The assembly conv layer of conv_amd64.s: convGo over an ih×convDW image,
// ih at least two, convPre nil or as long as feat. It trusts its arguments;
// vecConv is the only caller.
//
//go:noescape
func convAVX2(w *convWeights, img *float64, ih int, convPre *float64, feat *float64)

// init lists the vector lanes this CPU runs, narrowest first, and installs
// the widest. The 512-bit lane scores L1 with its own twin and the dot and
// RotatE kernels with the AVX2 twins, which keep the bits; its rank path
// runs a certified kernel of each kind: the FMA dot kernel, the L1 kernel
// built on VMAXPD, and RotatE's one-step root. Under the query
// builders each lane runs its own row-accumulate, four and eight outputs a
// register, and both run ConvE's AVX2 conv layer.
func init() {
	if !cpu.AVX2 {
		return
	}
	avx2 := vecLane{name: "avx2", kernels: [numKinds]tileFunc{
		kindDot: vecTile(dotTileAVX2, 1),
		kindL1:  vecTile(l1TileAVX2, 1),
		kindRot: vecTile(rotTileAVX2, 2),
	}, rowAcc: vecRowAcc(rowAccAVX2), conv: vecConv}
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
				kindL1:  vecTile(l1TileMax512, 1),
				kindRot: vecTile(rotTileApprox512, 2),
			},
			rowAcc: vecRowAcc(rowAccAVX512),
			conv:   vecConv,
		})
	}
	widest := vecLanes[len(vecLanes)-1]
	vecKernels, certKernels = widest.kernels, widest.cert
	rowAcc, conv = widest.rowAcc, widest.conv
}

// vecRowAcc gives an assembly row-accumulate rowAccGo's signature and, like
// vecTile, is the memory-safety boundary in front of it: the slice
// expression panics, as rowAccGo's own would, on rows shorter than the last
// row it reads.
//
// It hands the kernel tileBytes of rows per call. The kernel sweeps its rows
// once per group of outputs, so rows that fit in L1 come from memory once,
// where a whole matrix larger than L2 (TuckER's core, ConvE's FC at dim 256)
// would be fetched again, in strided strips, for every group. Each output
// still adds its rows in ascending u, call after call.
func vecRowAcc(kernel func(out *float64, n int, c *float64, nrows int, rows *float64, stride int, skipZero bool)) rowAccFunc {
	return func(out, c, rows []float64, stride int, skipZero bool) {
		if len(out) == 0 || len(c) == 0 {
			return
		}
		if stride < 0 {
			panic("kgc: row-accumulate with a negative stride")
		}
		rows = rows[:(len(c)-1)*stride+len(out)]
		per := max(1, tileBytes/(8*max(stride, len(out))))
		for u := 0; u < len(c); u += per {
			kernel(&out[0], len(out), &c[u], min(per, len(c)-u), &rows[u*stride], stride, skipZero)
		}
	}
}

// vecConv gives convAVX2 convGo's signature and is the memory-safety
// boundary in front of it: the slice expressions panic, as convGo's own
// indexing would, on features or pre-BN sums shorter than the image's four
// channels. An image of fewer than two rows goes to convGo.
func vecConv(w *convWeights, img, convPre, feat []float64) {
	ih := len(img) / convDW
	if ih < 2 {
		convGo(w, img, convPre, feat)
		return
	}
	n := convChannels * ih * convDW
	var pre *float64
	if convPre != nil {
		pre = &convPre[:n][0]
	}
	convAVX2(w, &img[0], ih, pre, &feat[:n][0])
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
