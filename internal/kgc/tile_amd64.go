//go:build amd64 && !purego

package kgc

import "kgeval/internal/cpu"

// The exact kernels of tile_amd64.s, the AVX2 twins that both vector lanes
// score with. Each scores nq queries of dim values (qs) against the n
// candidates of a candidate-minor tile (cols, n a positive multiple of four)
// and writes query i's scores to out[i*nc:][:n], with the Go kernel's bits.
// They trust their arguments; vecTile is the only caller.

//go:noescape
func dotTileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func l1TileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

//go:noescape
func rotTileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)

// The rank path's kernels of tile_amd64.s, in float32, sixteen candidates a
// register: the queries rounded to float32 against a float32 tile of n ≥ 1
// candidates (store.TileColumns32, column stride rankStride(n)), each score
// within certBound of the Go kernel's, widened to float64 into
// out[i*nc:][:n]. They trust their arguments; vecRank is the only caller.

//go:noescape
func dotTile16(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int)

//go:noescape
func l1Tile16(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int)

//go:noescape
func rotTile16(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int)

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
// the widest. Both lanes score with the AVX2 twins, which keep the bits, and
// run ConvE's AVX2 conv layer; the 512-bit lane adds what it has measured:
// its own row-accumulate, eight outputs a register, and a rank path of one
// certified float32 kernel of each kind, sixteen candidates a register —
// the FMA dot walk, the L1 kernel built on VMAXPS, and RotatE's VRSQRT14PS
// root.
func init() {
	if !cpu.AVX2 {
		return
	}
	vecKernels = [numKinds]tileFunc{
		kindDot: vecTile(dotTileAVX2, 1),
		kindL1:  vecTile(l1TileAVX2, 1),
		kindRot: vecTile(rotTileAVX2, 2),
	}
	conv = vecConv
	vecLanes = []vecLane{{name: "avx2", rowAcc: vecRowAcc(rowAccAVX2)}}
	if cpu.AVX512 {
		vecLanes = append(vecLanes, vecLane{name: "avx512",
			cert: [numKinds]rankFunc{
				kindDot: vecRank(dotTile16, 1),
				kindL1:  vecRank(l1Tile16, 1),
				kindRot: vecRank(rotTile16, 2),
			},
			rowAcc: vecRowAcc(rowAccAVX512),
		})
	}
	widest := vecLanes[len(vecLanes)-1]
	certKernels, rowAcc = widest.cert, widest.rowAcc
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

// vecRank gives a float32 rank kernel rankFunc's signature and is the
// memory-safety boundary in front of it, as vecTile is for the exact ones:
// the slice expressions panic on queries, a tile or score storage shorter
// than the shape asks for. The kernel reads whole registers of every column
// (rankStride(n) lanes) and stores only the n candidates' scores.
func vecRank(kernel func(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int), minDim int) rankFunc {
	return func(qs, cols []float32, dim, j0, j1, nc int, out []float64) {
		nq, n := len(qs)/dim, j1-j0
		if dim < minDim || n <= 0 || j0 < 0 || j1 > nc {
			panic("kgc: rank kernel called off its shape: a non-empty tile inside the pool")
		}
		cols, out = cols[:rankStride(n)*dim], out[:nq*nc]
		if nq > 0 {
			kernel(&qs[0], nq, &cols[0], dim, n, &out[j0], nc)
		}
	}
}
