//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the Go tile kernels in batch.go, an AVX-512F twin of the L1
// kernel (after the AVX2 ones), and three certified AVX-512F kernels that
// approximate the dot, L1 and RotatE scores for the rank path — an FMA dot
// product walked four queries at a time, an L1 distance summed as
// Q + C − 2·Σmax(q, c), and RotatE's modulus with VRSQRT14PD as its root —
// all over a candidate-minor tile
// (cols[k*n+t] is dimension k of the tile's t-th candidate; n, a multiple of
// four, is also the column stride). tile_amd64.go's init installs them.
//
// The four lanes of a YMM register (eight of a ZMM register) hold
// *candidates*, never dims of one candidate. A twin's lane therefore
// performs, in order, exactly the scalar kernel's operations for its
// candidate: one rounded multiply and one rounded add per dim for the dot
// product (VMULPD then VADDPD — never a fused multiply-add, which would round
// once), subtract / clear sign / add for L1, and subtract, subtract, square,
// square, add, square root, add for the complex modulus. No reduction runs
// across lanes, so every score a twin writes has the bits the Go kernel gives
// it. The three certified kernels, dotTileFMA512, l1TileMax512 and
// rotTileApprox512, keep the lane layout and the dim order but not the
// bits: each promises a bound
// on its distance from the Go kernel's score, proved where it is defined
// below, and the rank path rescores whatever that bound cannot settle.
//
// Each kernel walks the tile in groups of 32, 16, 8 and 4 candidates — 8, 4,
// 2 or 1 independent accumulators — and streams every query over a group
// before moving on. All three share one loop nest, WALK; they differ in the
// per-dim step and in how a finished accumulator is stored.
//
// Registers, the AVX2 kernels (the 512-bit ones add theirs below):
//	SI   cursor in qs (the query values are read once, front to back)
//	R8   queries left in this group
//	R9   cols of this group's first candidate
//	CX   candidates left in the tile
//	DI   out for this group, first query
//	DX   out for this group, current query
//	AX   dims left in this query
//	R11  cursor in cols, one row of the tile per dim
//	R12  out row stride in bytes (nc*8)
//	R13  cols row stride in bytes (n*8)
//	Y0-Y7   accumulators
//	Y8-Y9   temporaries
//	Y12     broadcast q[k] (RotatE: the real part)
// and for RotatE, whose rows are [re... im...] halves:
//	R10  bytes from a real part to its imaginary part in qs (half*8)
//	BX   the same in cols (half*n*8)
//	R14  bytes from the end of a query's real half to the next query
//	Y13  broadcast imaginary part

#define ZERO1 \
	VXORPD Y0, Y0, Y0
#define ZERO2 \
	ZERO1; \
	VXORPD Y1, Y1, Y1
#define ZERO4 \
	ZERO2; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3
#define ZERO8 \
	ZERO4; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// Finished accumulators go to out as they are (the dot product) or negated
// (the two distances; Y10 holds the sign bits), as the Go kernels' -s.
#define PUT(acc, off) \
	VMOVUPD acc, off(DX)
#define PUTNEG(acc, off) \
	VXORPD  Y10, acc, acc; \
	VMOVUPD acc, off(DX)

// acc += q[k] * cols[k][lanes]
#define DOT(acc, off) \
	VMULPD off(R11), Y12, Y8; \
	VADDPD Y8, acc, acc

// acc += |q[k] - cols[k][lanes]|; Y11 holds every bit but the sign.
#define L1(acc, off) \
	VSUBPD off(R11), Y12, Y8; \
	VANDPD Y11, Y8, Y8; \
	VADDPD Y8, acc, acc

// acc += sqrt((re - cre)² + (im - cim)²), as kgc.cmod.
#define ROT(acc, off) \
	VSUBPD  off(R11), Y12, Y8; \
	VSUBPD  off(R11)(BX*1), Y13, Y9; \
	VMULPD  Y8, Y8, Y8; \
	VMULPD  Y9, Y9, Y9; \
	VADDPD  Y9, Y8, Y8; \
	VSQRTPD Y8, Y8; \
	VADDPD  Y8, acc, acc

// WALK scores every query against W candidates at a time while at least W
// remain in the tile, then falls through to the next narrower group.
// DIMS loads the per-query dim count, ZERO clears the accumulators, LOAD
// broadcasts the query value(s), STEPS is one dim for every accumulator,
// NEXTQ moves SI to the next query, STORE writes the W scores.
#define WALK(W, group, query, dims, next, DIMS, ZERO, LOAD, STEPS, NEXTQ, STORE) \
group: \
	CMPQ CX, $W; \
	JLT  next; \
	MOVQ qs+0(FP), SI; \
	MOVQ nq+8(FP), R8; \
	MOVQ DI, DX; \
query: \
	DIMS; \
	MOVQ R9, R11; \
	ZERO; \
dims: \
	LOAD; \
	STEPS; \
	ADDQ $8, SI; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  dims; \
	NEXTQ; \
	STORE; \
	ADDQ R12, DX; \
	DECQ R8; \
	JNZ  query; \
	ADDQ $(W*8), R9; \
	ADDQ $(W*8), DI; \
	SUBQ $W, CX; \
	JMP  group

// SETUP loads the arguments every kernel shares.
#define SETUP \
	MOVQ cols+16(FP), R9; \
	MOVQ n+32(FP), CX; \
	MOVQ out+40(FP), DI; \
	MOVQ nc+48(FP), R12; \
	SHLQ $3, R12; \
	MOVQ CX, R13; \
	SHLQ $3, R13

#define ALLDIMS \
	MOVQ dim+24(FP), AX
#define BCAST \
	VBROADCASTSD (SI), Y12
#define NOP0

#define DOT1 DOT(Y0, 0)
#define DOT2 DOT1; DOT(Y1, 32)
#define DOT4 DOT2; DOT(Y2, 64); DOT(Y3, 96)
#define DOT8 DOT4; DOT(Y4, 128); DOT(Y5, 160); DOT(Y6, 192); DOT(Y7, 224)

#define PUT1 PUT(Y0, 0)
#define PUT2 PUT1; PUT(Y1, 32)
#define PUT4 PUT2; PUT(Y2, 64); PUT(Y3, 96)
#define PUT8 PUT4; PUT(Y4, 128); PUT(Y5, 160); PUT(Y6, 192); PUT(Y7, 224)

// func dotTileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-56
	SETUP
	WALK(32, dot32, dot32q, dot32k, dot16, ALLDIMS, ZERO8, BCAST, DOT8, NOP0, PUT8)
	WALK(16, dot16, dot16q, dot16k, dot8, ALLDIMS, ZERO4, BCAST, DOT4, NOP0, PUT4)
	WALK(8, dot8, dot8q, dot8k, dot4, ALLDIMS, ZERO2, BCAST, DOT2, NOP0, PUT2)
	WALK(4, dot4, dot4q, dot4k, dotdone, ALLDIMS, ZERO1, BCAST, DOT1, NOP0, PUT1)
dotdone:
	VZEROUPPER
	RET

#define L11 L1(Y0, 0)
#define L12 L11; L1(Y1, 32)
#define L14 L12; L1(Y2, 64); L1(Y3, 96)
#define L18 L14; L1(Y4, 128); L1(Y5, 160); L1(Y6, 192); L1(Y7, 224)

#define NEG1 PUTNEG(Y0, 0)
#define NEG2 NEG1; PUTNEG(Y1, 32)
#define NEG4 NEG2; PUTNEG(Y2, 64); PUTNEG(Y3, 96)
#define NEG8 NEG4; PUTNEG(Y4, 128); PUTNEG(Y5, 160); PUTNEG(Y6, 192); PUTNEG(Y7, 224)

// SIGNMASKS sets Y10 to the sign bit and Y11 to every other bit of each
// lane, from an all-ones register rather than from memory.
#define SIGNMASKS \
	VPCMPEQD Y10, Y10, Y10; \
	VPSRLQ   $1, Y10, Y11; \
	VPSLLQ   $63, Y10, Y10

// func l1TileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·l1TileAVX2(SB), NOSPLIT, $0-56
	SETUP
	SIGNMASKS
	WALK(32, l32, l32q, l32k, l16, ALLDIMS, ZERO8, BCAST, L18, NOP0, NEG8)
	WALK(16, l16, l16q, l16k, l8, ALLDIMS, ZERO4, BCAST, L14, NOP0, NEG4)
	WALK(8, l8, l8q, l8k, l4, ALLDIMS, ZERO2, BCAST, L12, NOP0, NEG2)
	WALK(4, l4, l4q, l4k, ldone, ALLDIMS, ZERO1, BCAST, L11, NOP0, NEG1)
ldone:
	VZEROUPPER
	RET

#define ROT1 ROT(Y0, 0)
#define ROT2 ROT1; ROT(Y1, 32)
#define ROT4 ROT2; ROT(Y2, 64); ROT(Y3, 96)
#define ROT8 ROT4; ROT(Y4, 128); ROT(Y5, 160); ROT(Y6, 192); ROT(Y7, 224)

#define HALFDIMS \
	MOVQ R10, AX; \
	SHRQ $3, AX
#define BCAST2 \
	VBROADCASTSD (SI), Y12; \
	VBROADCASTSD (SI)(R10*1), Y13
#define SKIPIM \
	ADDQ R14, SI

// func rotTileAVX2(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
//
// dim counts real values; the kernel sums over the dim/2 complex dims and,
// like the Go kernel, never reads a trailing odd value.
TEXT ·rotTileAVX2(SB), NOSPLIT, $0-56
	SETUP
	SIGNMASKS
	MOVQ  dim+24(FP), R14
	MOVQ  R14, R10
	SHRQ  $1, R10           // half
	MOVQ  R10, BX
	IMULQ R13, BX           // half rows of cols, in bytes
	SHLQ  $3, R10           // half values of a query, in bytes
	SHLQ  $3, R14
	SUBQ  R10, R14          // (dim - half)*8: from the end of the real half to the next query
	WALK(32, r32, r32q, r32k, r16, HALFDIMS, ZERO8, BCAST2, ROT8, SKIPIM, NEG8)
	WALK(16, r16, r16q, r16k, r8, HALFDIMS, ZERO4, BCAST2, ROT4, SKIPIM, NEG4)
	WALK(8, r8, r8q, r8k, r4, HALFDIMS, ZERO2, BCAST2, ROT2, SKIPIM, NEG2)
	WALK(4, r4, r4q, r4k, rdone, HALFDIMS, ZERO1, BCAST2, ROT1, SKIPIM, NEG1)
rdone:
	VZEROUPPER
	RET

// The 512-bit dot and L1 kernels. A ZMM register holds eight candidates.
// They walk the tile in groups of 32, 16 and 8 candidates (four, two or one
// ZMM accumulators per query), then one YMM step for a last group of four.
// Over a group the queries go two at a time and share every column load: a
// 32-candidate group keeps eight independent chains in flight. An odd last
// query goes alone. The FMA dot kernel walks its 32-candidate groups four
// queries at a time first (sixteen chains), then in pairs. Only AVX-512F
// instructions appear (VPANDQ and VPXORQ, not the DQ subset's VANDPD and
// VXORPD on ZMM); the YMM step is VEX-encoded AVX. The exact L1 twin's lanes
// run, in dim order, the operations of the YMM kernel above, so its scores
// keep their bits. RotatE's kernel, after these, walks its groups
// differently.
//
// Registers beyond those of the YMM kernels:
//	R10      bytes from one query to the next in qs (dim*8); the pair's
//	         second query is at (SI)(R10*1), its scores at (DX)(R12*1)
//	Z0-Z3    accumulators of the pair's first query (or of the lone query)
//	Z4-Z7    accumulators of its second query
//	Z8-Z9    temporaries
//	Z10-Z11  sign bit / every other bit (L1)
//	Z12-Z13  broadcast q[k] of the two queries
//	Z16-Z19  the group's candidates at dim k (Y14 in the YMM step)

// WALKZ is WALK over a pair of queries at a time. PRE runs once a group,
// before its first query, ZERO clears the accumulators, COLS loads the
// group's candidates at one dim, STEPA and STEPB are that dim for the first
// and second query, STOREA and STOREB write their W scores.
#define WALKZ(W, group, pair, pdims, one, odims, done, next, PRE, ZERO, COLS, STEPA, STEPB, STOREA, STOREB) \
group: \
	CMPQ CX, $W; \
	JLT  next; \
	MOVQ qs+0(FP), SI; \
	MOVQ nq+8(FP), R8; \
	MOVQ DI, DX; \
	PRE; \
pair: \
	CMPQ R8, $2; \
	JLT  one; \
	MOVQ dim+24(FP), AX; \
	MOVQ R9, R11; \
	ZERO; \
pdims: \
	VBROADCASTSD (SI), Z12; \
	VBROADCASTSD (SI)(R10*1), Z13; \
	COLS; \
	STEPA; \
	STEPB; \
	ADDQ $8, SI; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  pdims; \
	ADDQ R10, SI; \
	STOREA; \
	STOREB; \
	LEAQ (DX)(R12*2), DX; \
	SUBQ $2, R8; \
	JMP  pair; \
one: \
	TESTQ R8, R8; \
	JZ    done; \
	MOVQ  dim+24(FP), AX; \
	MOVQ  R9, R11; \
	ZERO; \
odims: \
	VBROADCASTSD (SI), Z12; \
	COLS; \
	STEPA; \
	ADDQ $8, SI; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  odims; \
	STOREA; \
done: \
	ADDQ $(W*8), R9; \
	ADDQ $(W*8), DI; \
	SUBQ $W, CX; \
	JMP  group

// SETUPZ adds the query stride to SETUP.
#define SETUPZ \
	SETUP; \
	MOVQ dim+24(FP), R10; \
	SHLQ $3, R10

#define ZZ(r) \
	VPXORQ r, r, r
#define ZEROZ32 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3); ZZ(Z4); ZZ(Z5); ZZ(Z6); ZZ(Z7)
#define ZEROZ16 ZZ(Z0); ZZ(Z1); ZZ(Z4); ZZ(Z5)
#define ZEROZ8 ZZ(Z0); ZZ(Z4)
#define ZEROY4 VXORPD Y0, Y0, Y0; VXORPD Y4, Y4, Y4

#define COLS32 \
	VMOVUPD (R11), Z16; \
	VMOVUPD 64(R11), Z17; \
	VMOVUPD 128(R11), Z18; \
	VMOVUPD 192(R11), Z19
#define COLS16 \
	VMOVUPD (R11), Z16; \
	VMOVUPD 64(R11), Z17
#define COLS8 \
	VMOVUPD (R11), Z16
#define COLS4 \
	VMOVUPD (R11), Y14

// The dot kernel fuses each dim's multiply and add: acc += q·col rounds once
// (VFMADD231PD), where the Go kernel rounds the product and then the sum.
// The YMM step for a last group of four keeps VMULPD then VADDPD.
//
// Why that is safe for a rank. Both sums add the same n products
// pₖ = q[k]·col[k] in dim order, one rounding per step, so each lies within
// γₙ·Σ|pₖ| of the exact Σpₖ, γₙ = nu/(1 − nu) with u = 2⁻⁵³ (Higham,
// Accuracy and Stability of Numerical Algorithms, §3.1), as long as no step
// underflows; a step that does (a product or a sum below 2⁻¹⁰²², where
// rounding is absolute) adds at most 2⁻¹⁰⁷⁵. Hence
//	|fma − mul+add| ≤ 2γₙ·‖q‖₁·max|col[k]| + n·2⁻¹⁰⁷⁴,
// while ‖q‖₁·max|col[k]| is far enough below the overflow threshold that
// neither sum can overflow where the other does not. kgc's certBound states
// that bound per query and gates the rest; eval's count settles every
// candidate outside it and rescores the others with the Go kernel.
//
// The four-query walk of a 32-candidate group keeps the FMA ZMM units fed:
// a pair issues six loads and eight FMAs a dim, a quad eight loads and
// sixteen, so the loop's own four instructions weigh half as much. Each
// accumulator still runs acc += q[k]·col[k] for k in order, the same FMA on
// the same values whichever walk it is in, so a score has the same bits for
// every query count and the bound above holds unchanged.
//
// Registers of the four-query walk:
//	BX       three query strides (3·dim·8): the quad's fourth query
//	R14      three out rows (3·nc·8): its scores
//	Z0-Z15   accumulators, four per query
//	Z20-Z23  broadcast q[k] of the four queries

// acc += q * col, rounded twice (the YMM step)
#define DOTV(col, q, tmp, acc) \
	VMULPD col, q, tmp; \
	VADDPD tmp, acc, acc

// acc += q * col, rounded once
#define FMAV(col, q, acc) \
	VFMADD231PD col, q, acc

#define FMAA32 FMAV(Z16, Z12, Z0); FMAV(Z17, Z12, Z1); FMAV(Z18, Z12, Z2); FMAV(Z19, Z12, Z3)
#define FMAB32 FMAV(Z16, Z13, Z4); FMAV(Z17, Z13, Z5); FMAV(Z18, Z13, Z6); FMAV(Z19, Z13, Z7)
#define FMAA16 FMAV(Z16, Z12, Z0); FMAV(Z17, Z12, Z1)
#define FMAB16 FMAV(Z16, Z13, Z4); FMAV(Z17, Z13, Z5)
#define FMAA8 FMAV(Z16, Z12, Z0)
#define FMAB8 FMAV(Z16, Z13, Z4)
#define DOTA4 DOTV(Y14, Y12, Y8, Y0)
#define DOTB4 DOTV(Y14, Y13, Y9, Y4)

// The second query's scores, one out row further.
#define PUTB(acc, off) \
	VMOVUPD acc, off(DX)(R12*1)

#define PUTA32 PUT(Z0, 0); PUT(Z1, 64); PUT(Z2, 128); PUT(Z3, 192)
#define PUTB32 PUTB(Z4, 0); PUTB(Z5, 64); PUTB(Z6, 128); PUTB(Z7, 192)
#define PUTA16 PUT(Z0, 0); PUT(Z1, 64)
#define PUTB16 PUTB(Z4, 0); PUTB(Z5, 64)
#define PUTA8 PUT(Z0, 0)
#define PUTB8 PUTB(Z4, 0)
#define PUTA4 PUT(Y0, 0)
#define PUTB4 PUTB(Y4, 0)

// One dim of a query's 32 candidates: acc0..acc3 += q * Z16..Z19.
#define FMA32(q, a0, a1, a2, a3) \
	FMAV(Z16, q, a0); FMAV(Z17, q, a1); FMAV(Z18, q, a2); FMAV(Z19, q, a3)

// QUADS32 scores the queries of a 32-candidate group four at a time while
// four remain, and leaves the rest to the pairs.
#define QUADS32 \
dz32x: \
	CMPQ R8, $4; \
	JLT  dz32xe; \
	MOVQ dim+24(FP), AX; \
	MOVQ R9, R11; \
	ZEROZ32; \
	ZZ(Z8); ZZ(Z9); ZZ(Z10); ZZ(Z11); ZZ(Z12); ZZ(Z13); ZZ(Z14); ZZ(Z15); \
dz32xk: \
	VBROADCASTSD (SI), Z20; \
	VBROADCASTSD (SI)(R10*1), Z21; \
	VBROADCASTSD (SI)(R10*2), Z22; \
	VBROADCASTSD (SI)(BX*1), Z23; \
	COLS32; \
	FMA32(Z20, Z0, Z1, Z2, Z3); \
	FMA32(Z21, Z4, Z5, Z6, Z7); \
	FMA32(Z22, Z8, Z9, Z10, Z11); \
	FMA32(Z23, Z12, Z13, Z14, Z15); \
	ADDQ $8, SI; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  dz32xk; \
	ADDQ BX, SI; \
	PUTA32; \
	PUTB32; \
	VMOVUPD Z8, (DX)(R12*2); \
	VMOVUPD Z9, 64(DX)(R12*2); \
	VMOVUPD Z10, 128(DX)(R12*2); \
	VMOVUPD Z11, 192(DX)(R12*2); \
	VMOVUPD Z12, (DX)(R14*1); \
	VMOVUPD Z13, 64(DX)(R14*1); \
	VMOVUPD Z14, 128(DX)(R14*1); \
	VMOVUPD Z15, 192(DX)(R14*1); \
	LEAQ (DX)(R12*4), DX; \
	SUBQ $4, R8; \
	JMP  dz32x; \
dz32xe:

// func dotTileFMA512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·dotTileFMA512(SB), NOSPLIT, $0-56
	SETUPZ
	LEAQ (R10)(R10*2), BX
	LEAQ (R12)(R12*2), R14
	WALKZ(32, dz32, dz32p, dz32pk, dz32o, dz32ok, dz32d, dz16, QUADS32, ZEROZ32, COLS32, FMAA32, FMAB32, PUTA32, PUTB32)
	WALKZ(16, dz16, dz16p, dz16pk, dz16o, dz16ok, dz16d, dz8, NOP0, ZEROZ16, COLS16, FMAA16, FMAB16, PUTA16, PUTB16)
	WALKZ(8, dz8, dz8p, dz8pk, dz8o, dz8ok, dz8d, dz4, NOP0, ZEROZ8, COLS8, FMAA8, FMAB8, PUTA8, PUTB8)
	WALKZ(4, dz4, dz4p, dz4pk, dz4o, dz4ok, dz4d, dzdone, NOP0, ZEROY4, COLS4, DOTA4, DOTB4, PUTA4, PUTB4)
dzdone:
	VZEROUPPER
	RET

// acc += |q - col|; Z11 (Y11) holds every bit but the sign.
#define L1Z(col, q, tmp, acc) \
	VSUBPD col, q, tmp; \
	VPANDQ Z11, tmp, tmp; \
	VADDPD tmp, acc, acc
#define L1Y(col, q, tmp, acc) \
	VSUBPD col, q, tmp; \
	VANDPD Y11, tmp, tmp; \
	VADDPD tmp, acc, acc

#define L1A32 L1Z(Z16, Z12, Z8, Z0); L1Z(Z17, Z12, Z8, Z1); L1Z(Z18, Z12, Z8, Z2); L1Z(Z19, Z12, Z8, Z3)
#define L1B32 L1Z(Z16, Z13, Z9, Z4); L1Z(Z17, Z13, Z9, Z5); L1Z(Z18, Z13, Z9, Z6); L1Z(Z19, Z13, Z9, Z7)
#define L1A16 L1Z(Z16, Z12, Z8, Z0); L1Z(Z17, Z12, Z8, Z1)
#define L1B16 L1Z(Z16, Z13, Z9, Z4); L1Z(Z17, Z13, Z9, Z5)
#define L1A8 L1Z(Z16, Z12, Z8, Z0)
#define L1B8 L1Z(Z16, Z13, Z9, Z4)
#define L1A4 L1Y(Y14, Y12, Y8, Y0)
#define L1B4 L1Y(Y14, Y13, Y9, Y4)

// Negated stores, as PUTNEG; Z10 (Y10) holds the sign bit.
#define PUTNEGZ(acc, off) \
	VPXORQ  Z10, acc, acc; \
	VMOVUPD acc, off(DX)
#define PUTNEGZB(acc, off) \
	VPXORQ  Z10, acc, acc; \
	PUTB(acc, off)
#define PUTNEGB(acc, off) \
	VXORPD Y10, acc, acc; \
	PUTB(acc, off)

#define NEGA32 PUTNEGZ(Z0, 0); PUTNEGZ(Z1, 64); PUTNEGZ(Z2, 128); PUTNEGZ(Z3, 192)
#define NEGB32 PUTNEGZB(Z4, 0); PUTNEGZB(Z5, 64); PUTNEGZB(Z6, 128); PUTNEGZB(Z7, 192)
#define NEGA16 PUTNEGZ(Z0, 0); PUTNEGZ(Z1, 64)
#define NEGB16 PUTNEGZB(Z4, 0); PUTNEGZB(Z5, 64)
#define NEGA8 PUTNEGZ(Z0, 0)
#define NEGB8 PUTNEGZB(Z4, 0)
#define NEGA4 PUTNEG(Y0, 0)
#define NEGB4 PUTNEGB(Y4, 0)

// SIGNMASKSZ sets Z10 to the sign bit and Z11 to every other bit of each
// lane, broadcast from a general register rather than loaded from memory.
#define SIGNMASKSZ \
	MOVQ         $0x8000000000000000, BX; \
	VPBROADCASTQ BX, Z10; \
	NOTQ         BX; \
	VPBROADCASTQ BX, Z11

// func l1TileAVX512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·l1TileAVX512(SB), NOSPLIT, $0-56
	SETUPZ
	SIGNMASKSZ
	WALKZ(32, lz32, lz32p, lz32pk, lz32o, lz32ok, lz32d, lz16, NOP0, ZEROZ32, COLS32, L1A32, L1B32, NEGA32, NEGB32)
	WALKZ(16, lz16, lz16p, lz16pk, lz16o, lz16ok, lz16d, lz8, NOP0, ZEROZ16, COLS16, L1A16, L1B16, NEGA16, NEGB16)
	WALKZ(8, lz8, lz8p, lz8pk, lz8o, lz8ok, lz8d, lz4, NOP0, ZEROZ8, COLS8, L1A8, L1B8, NEGA8, NEGB8)
	WALKZ(4, lz4, lz4p, lz4pk, lz4o, lz4ok, lz4d, lzdone, NOP0, ZEROY4, COLS4, L1A4, L1B4, NEGA4, NEGB4)
lzdone:
	VZEROUPPER
	RET

// The L1 kernel of the rank path. It writes each score as
//	f = fl(fl(Q + C) − 2M),  −Σₖ|q[k] − c[k]| = Σₖq[k] + Σₖc[k] − 2·Σₖmax(q[k], c[k]),
// M the lane's running sum of max(q[k], c[k]) (VMAXPD then VADDPD: one
// operation fewer a dim than subtract, clear the sign, add), Q the query's
// sum of q[k] and C the candidate's sum of c[k], each added in dim order
// from zero. C is taken once a group, before its first query, and the last
// step is one VFNMADD231PD: T − 2·M, rounded once. The groups of 32, 16 and 8
// candidates walk the queries in pairs as the exact twin does; a last group
// of four takes its YMM step, the Go kernel's bits.
//
// Why that is safe for a rank. With A = ‖q‖₁ + n·max|c|, u = 2⁻⁵³ and γₖ as
// above, and n = dim:
//   - the Go kernel's s = Σ fl(|q[k] − c[k]|) in dim order is within γₙ·D of
//     D = Σ|q[k] − c[k]| ≤ A (n terms ≥ 0, one rounding each, n − 1 sums);
//   - M, Q and C are sums of n terms whose magnitudes add up to at most A,
//     ‖q‖₁ and n·max|c| (|max(a, b)| ≤ |a| + |b|), so the three miss the
//     exact sums by at most γₙ₋₁·(2A + A) counted with M's factor two;
//   - fl(Q + C) and the final step round twice more, by at most u·(1 + γₙ₋₁)·A
//     and u·(3 + u)·(1 + γₙ₋₁)·A.
// Together |f − (−s)| ≤ (3γₙ₋₁ + γₙ + u·(4 + u)·(1 + γₙ₋₁))·A, a little
// above (4n + 1)·u·A. No step adds an absolute error: there are only sums,
// exact where they underflow, and 2·M, exact. With A ≤ 2¹⁰⁰⁰ no sum of
// either kernel overflows. kgc's certBound states the bound per query and
// gates the rest. A NaN among a candidate's values makes its C, and so its f,
// NaN whichever operand VMAXPD passes on, which the rank path never
// settles; the gate refuses a query that holds one.
//
// A candidate row equal to the query scores exactly 0, as in the Go kernel:
// M, Q and C then add the same values in the same order, and T − 2·M is
// 2Q − 2Q.
//
// Registers beyond those of the exact twin:
//	Z8-Z9    Q of the pair's first and second query
//	Z14-Z15  max(q[k], c[k]), then T, of the first and second query
//	Z20-Z23  C of the group's candidates
//	Z24      2.0 in every lane

// C of a group of four, two or one ZMM registers of candidates; AX and R11
// are free until the group's first query sets them.
#define CSUM(lbl, STEP) \
	MOVQ dim+24(FP), AX; \
	MOVQ R9, R11; \
	ZZ(Z20); ZZ(Z21); ZZ(Z22); ZZ(Z23); \
lbl: \
	STEP; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  lbl
#define CADD8 VADDPD (R11), Z20, Z20
#define CADD16 CADD8; VADDPD 64(R11), Z21, Z21
#define CADD32 CADD16; VADDPD 128(R11), Z22, Z22; VADDPD 192(R11), Z23, Z23
#define CSUM32 CSUM(lm32c, CADD32)
#define CSUM16 CSUM(lm16c, CADD16)
#define CSUM8 CSUM(lm8c, CADD8)

// acc += max(q, col)
#define MAXZ(col, q, tmp, acc) \
	VMAXPD col, q, tmp; \
	VADDPD tmp, acc, acc

#define MAXA32 VADDPD Z12, Z8, Z8; MAXZ(Z16, Z12, Z14, Z0); MAXZ(Z17, Z12, Z14, Z1); MAXZ(Z18, Z12, Z14, Z2); MAXZ(Z19, Z12, Z14, Z3)
#define MAXB32 VADDPD Z13, Z9, Z9; MAXZ(Z16, Z13, Z15, Z4); MAXZ(Z17, Z13, Z15, Z5); MAXZ(Z18, Z13, Z15, Z6); MAXZ(Z19, Z13, Z15, Z7)
#define MAXA16 VADDPD Z12, Z8, Z8; MAXZ(Z16, Z12, Z14, Z0); MAXZ(Z17, Z12, Z14, Z1)
#define MAXB16 VADDPD Z13, Z9, Z9; MAXZ(Z16, Z13, Z15, Z4); MAXZ(Z17, Z13, Z15, Z5)
#define MAXA8 VADDPD Z12, Z8, Z8; MAXZ(Z16, Z12, Z14, Z0)
#define MAXB8 VADDPD Z13, Z9, Z9; MAXZ(Z16, Z13, Z15, Z4)

#define ZEROM32 ZEROZ32; ZZ(Z8); ZZ(Z9)
#define ZEROM16 ZEROZ16; ZZ(Z8); ZZ(Z9)
#define ZEROM8 ZEROZ8; ZZ(Z8); ZZ(Z9)

// The score of one register of candidates: T = Q + C, then T − 2·M.
#define FIN(acc, c, qsum, t) \
	VADDPD       c, qsum, t; \
	VFNMADD231PD Z24, acc, t
#define FINA(acc, c, off) \
	FIN(acc, c, Z8, Z14); \
	VMOVUPD Z14, off(DX)
#define FINB(acc, c, off) \
	FIN(acc, c, Z9, Z15); \
	PUTB(Z15, off)

#define FINA32 FINA(Z0, Z20, 0); FINA(Z1, Z21, 64); FINA(Z2, Z22, 128); FINA(Z3, Z23, 192)
#define FINB32 FINB(Z4, Z20, 0); FINB(Z5, Z21, 64); FINB(Z6, Z22, 128); FINB(Z7, Z23, 192)
#define FINA16 FINA(Z0, Z20, 0); FINA(Z1, Z21, 64)
#define FINB16 FINB(Z4, Z20, 0); FINB(Z5, Z21, 64)
#define FINA8 FINA(Z0, Z20, 0)
#define FINB8 FINB(Z4, Z20, 0)

// func l1TileMax512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·l1TileMax512(SB), NOSPLIT, $0-56
	SETUPZ
	SIGNMASKSZ
	MOVQ         $0x4000000000000000, AX
	VPBROADCASTQ AX, Z24
	WALKZ(32, lm32, lm32p, lm32pk, lm32o, lm32ok, lm32d, lm16, CSUM32, ZEROM32, COLS32, MAXA32, MAXB32, FINA32, FINB32)
	WALKZ(16, lm16, lm16p, lm16pk, lm16o, lm16ok, lm16d, lm8, CSUM16, ZEROM16, COLS16, MAXA16, MAXB16, FINA16, FINB16)
	WALKZ(8, lm8, lm8p, lm8pk, lm8o, lm8ok, lm8d, lm4, CSUM8, ZEROM8, COLS8, MAXA8, MAXB8, FINA8, FINB8)
	WALKZ(4, lm4, lm4p, lm4pk, lm4o, lm4ok, lm4d, lmdone, NOP0, ZEROY4, COLS4, L1A4, L1B4, NEGA4, NEGB4)
lmdone:
	VZEROUPPER
	RET

// The RotatE kernel of the rank path. Each lane forms x = Δre² + Δim² with
// one multiply and one FMA (Δre·Δre + fl(Δim²), rounded once), takes
// y = VRSQRT14PD(x), and adds x·y ≈ √x to its sum with one more FMA. The
// groups of 32, 16 and 8 candidates hold four, two and one ZMM
// accumulators, the queries go one at a time, and a last group of four takes
// the YMM step of rotTileAVX2 (VSQRTPD, exact). The divider, which VSQRTPD
// needs, is 256 bits wide and the bottleneck of every exact RotatE kernel;
// this one leaves it idle, and spends six instructions a register of
// candidates where the exact one spends seven on a half as wide register.
//
// The root, and its error. y = VRSQRT14PD(x) has |y·√x − 1| < ε = 2⁻¹⁴ for
// every positive finite x, subnormal included, so the term t = x·y, exact
// inside the FMA, is √x·(1 + η) with |η| < ε. t lies in [2⁻⁵³⁸, 2⁵¹³) for
// every positive finite x, so the FMA's sum, of terms ≥ 0, rounds by u
// relative. x = 0 gives y = +Inf and t = 0·∞, x = +Inf gives t = ∞·0, and
// x = NaN gives NaN: the approximation of every such candidate is NaN,
// which the rank path never settles.
//
// x itself. The Go kernel's x (kgc.cmod: two products, one sum) and this
// one's (one product, one FMA) both lie within γ₂·X of X = Δre² + Δim² (the
// same rounded differences) plus, where a product or the FMA falls below
// 2⁻¹⁰²² and rounds absolutely, at most 2⁻¹⁰⁷⁴. Their roots therefore differ
// by at most γ₂·√X + 2⁻⁵³⁶ (|√a − √b| ≤ √|a − b|).
//
// The score. The kernel's sum f adds n = dim/2 terms tₖ with n roundings,
// the Go kernel's s the correctly rounded roots rₖ with n − 1, so
// |f − Σt| ≤ γₙ·Σt and |s − Σr| ≤ γₙ₋₁·Σr, and by the two paragraphs above
// |tₖ − rₖ| ≤ (ε + 3u)/(1 − ε)·tₖ + 2⁻⁵³⁶·(1 + 2⁻¹⁰). Hence
//	|f − s| ≤ (ε·(1 + ε) + 2γₙ + 4u)·(1 + 2⁻⁴⁰)·|f| + n·2⁻⁵³⁶·(1 + 2⁻¹⁰),
// and for n ≤ 2²⁴ kgc's certBound states it as Rel = 2⁻¹⁴ + 2⁻²⁶ and
// Abs = n·2⁻⁵³⁵, and refuses to bound beyond. Only AVX-512F instructions
// appear.
//
// Registers beyond those of rotTileAVX2:
//	Z0-Z3    accumulators, groups A-D (Y0 in the YMM step)
//	Z4-Z7    Δre, groups A-D, then y
//	Z8-Z9, Z14-Z15   Δim, then x, groups A-D
//	Z10      sign bit

// x = (q.re − cols.re)² + (q.im − cols.im)² for one register of candidates,
// into t; d is a temporary.
#define MODX(off, d, t) \
	VSUBPD      off(R11), Z12, d; \
	VSUBPD      off(R11)(BX*1), Z13, t; \
	VMULPD      t, t, t; \
	VFMADD231PD d, d, t

// acc += √x, approximately, as x·VRSQRT14PD(x); y is a temporary.
#define ROOTADD(x, y, acc) \
	VRSQRT14PD  x, y; \
	VFMADD231PD y, x, acc

#define BCAST2Z \
	VBROADCASTSD (SI), Z12; \
	VBROADCASTSD (SI)(R10*1), Z13

#define ZEROR32 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3)
#define ZEROR16 ZZ(Z0); ZZ(Z1)
#define ZEROR8 ZZ(Z0)

#define ROTA32 \
	MODX(0, Z4, Z8); \
	MODX(64, Z5, Z9); \
	MODX(128, Z6, Z14); \
	MODX(192, Z7, Z15); \
	ROOTADD(Z8, Z4, Z0); \
	ROOTADD(Z9, Z5, Z1); \
	ROOTADD(Z14, Z6, Z2); \
	ROOTADD(Z15, Z7, Z3)

#define ROTA16 \
	MODX(0, Z4, Z8); \
	MODX(64, Z5, Z9); \
	ROOTADD(Z8, Z4, Z0); \
	ROOTADD(Z9, Z5, Z1)

#define ROTA8 \
	MODX(0, Z4, Z8); \
	ROOTADD(Z8, Z4, Z0)

// func rotTileApprox512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·rotTileApprox512(SB), NOSPLIT, $0-56
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Z10
	SETUP
	MOVQ  dim+24(FP), R14
	MOVQ  R14, R10
	SHRQ  $1, R10           // half
	MOVQ  R10, BX
	IMULQ R13, BX           // half rows of cols, in bytes
	SHLQ  $3, R10           // half values of a query, in bytes
	SHLQ  $3, R14
	SUBQ  R10, R14          // (dim - half)*8: from the end of the real half to the next query
	WALK(32, ra32, ra32q, ra32k, ra16, HALFDIMS, ZEROR32, BCAST2Z, ROTA32, SKIPIM, NEGA32)
	WALK(16, ra16, ra16q, ra16k, ra8, HALFDIMS, ZEROR16, BCAST2Z, ROTA16, SKIPIM, NEGA16)
	WALK(8, ra8, ra8q, ra8k, ra4, HALFDIMS, ZEROR8, BCAST2Z, ROTA8, SKIPIM, NEGA8)
	WALK(4, ra4, ra4q, ra4k, radone, HALFDIMS, ZERO1, BCAST2, ROT1, SKIPIM, NEG1)
radone:
	VZEROUPPER
	RET
