//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the Go tile kernels in batch.go, over a candidate-minor tile
// (cols[k*n+t] is dimension k of the tile's t-th candidate; n, a multiple of
// four, is also the column stride).
//
// The four lanes of a YMM register hold four *candidates*, never four dims
// of one candidate. A lane therefore performs, in order, exactly the scalar
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
// Registers, all kernels:
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
