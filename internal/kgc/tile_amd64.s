//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the Go tile kernels in batch.go, and AVX-512F twins of the
// dot and L1 kernels (after the AVX2 ones), over a candidate-minor tile
// (cols[k*n+t] is dimension k of the tile's t-th candidate; n, a multiple of
// four, is also the column stride). tile_amd64.go's init installs the 512-bit
// twins where cpu.AVX512 holds and the AVX2 ones elsewhere.
//
// The four lanes of a YMM register (eight of a ZMM register) hold
// *candidates*, never dims of one candidate. A lane therefore performs, in order, exactly the scalar
// kernel's operations for its candidate: one rounded multiply and one
// rounded add per dim for the dot product (VMULPD then VADDPD — never a
// fused multiply-add, which would round once), subtract / clear sign / add
// for L1, and subtract, subtract, square, square, add, square root, add for
// the complex modulus. No reduction runs across lanes, so every score has
// the bits the Go kernel gives it.
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

// The 512-bit twins of the dot and L1 kernels. A ZMM register holds eight
// candidates, and each lane runs, in dim order, the operations of the YMM
// kernels above, so the scores keep their bits. They walk the tile in groups
// of 32, 16 and 8 candidates (four, two or one ZMM accumulators per query),
// then one YMM step for a last group of four. Over a group the queries go
// two at a time and share every column load: a 32-candidate group keeps
// eight independent chains in flight. An odd last query goes alone. Only
// AVX-512F instructions appear (VPANDQ and VPXORQ, not the DQ subset's
// VANDPD and VXORPD on ZMM); the YMM step is VEX-encoded AVX. RotatE has no
// 512-bit twin: its square root is as slow per lane at either width.
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

// WALKZ is WALK over a pair of queries at a time. ZERO clears the
// accumulators, COLS loads the group's candidates at one dim, STEPA and
// STEPB are that dim for the first and second query, STOREA and STOREB
// write their W scores.
#define WALKZ(W, group, pair, pdims, one, odims, done, next, ZERO, COLS, STEPA, STEPB, STOREA, STOREB) \
group: \
	CMPQ CX, $W; \
	JLT  next; \
	MOVQ qs+0(FP), SI; \
	MOVQ nq+8(FP), R8; \
	MOVQ DI, DX; \
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

// acc += q * col (either width)
#define DOTV(col, q, tmp, acc) \
	VMULPD col, q, tmp; \
	VADDPD tmp, acc, acc

#define DOTA32 DOTV(Z16, Z12, Z8, Z0); DOTV(Z17, Z12, Z8, Z1); DOTV(Z18, Z12, Z8, Z2); DOTV(Z19, Z12, Z8, Z3)
#define DOTB32 DOTV(Z16, Z13, Z9, Z4); DOTV(Z17, Z13, Z9, Z5); DOTV(Z18, Z13, Z9, Z6); DOTV(Z19, Z13, Z9, Z7)
#define DOTA16 DOTV(Z16, Z12, Z8, Z0); DOTV(Z17, Z12, Z8, Z1)
#define DOTB16 DOTV(Z16, Z13, Z9, Z4); DOTV(Z17, Z13, Z9, Z5)
#define DOTA8 DOTV(Z16, Z12, Z8, Z0)
#define DOTB8 DOTV(Z16, Z13, Z9, Z4)
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

// func dotTileAVX512(qs *float64, nq int, cols *float64, dim, n int, out *float64, nc int)
TEXT ·dotTileAVX512(SB), NOSPLIT, $0-56
	SETUPZ
	WALKZ(32, dz32, dz32p, dz32pk, dz32o, dz32ok, dz32d, dz16, ZEROZ32, COLS32, DOTA32, DOTB32, PUTA32, PUTB32)
	WALKZ(16, dz16, dz16p, dz16pk, dz16o, dz16ok, dz16d, dz8, ZEROZ16, COLS16, DOTA16, DOTB16, PUTA16, PUTB16)
	WALKZ(8, dz8, dz8p, dz8pk, dz8o, dz8ok, dz8d, dz4, ZEROZ8, COLS8, DOTA8, DOTB8, PUTA8, PUTB8)
	WALKZ(4, dz4, dz4p, dz4pk, dz4o, dz4ok, dz4d, dzdone, ZEROY4, COLS4, DOTA4, DOTB4, PUTA4, PUTB4)
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
	WALKZ(32, lz32, lz32p, lz32pk, lz32o, lz32ok, lz32d, lz16, ZEROZ32, COLS32, L1A32, L1B32, NEGA32, NEGB32)
	WALKZ(16, lz16, lz16p, lz16pk, lz16o, lz16ok, lz16d, lz8, ZEROZ16, COLS16, L1A16, L1B16, NEGA16, NEGB16)
	WALKZ(8, lz8, lz8p, lz8pk, lz8o, lz8ok, lz8d, lz4, ZEROZ8, COLS8, L1A8, L1B8, NEGA8, NEGB8)
	WALKZ(4, lz4, lz4p, lz4pk, lz4o, lz4ok, lz4d, lzdone, ZEROY4, COLS4, L1A4, L1B4, NEGA4, NEGB4)
lzdone:
	VZEROUPPER
	RET
