//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the Go tile kernels in batch.go, over a float64
// candidate-minor tile (cols[k*n+t] is dimension k of the tile's t-th
// candidate; n, a multiple of four, is also the column stride), which both
// vector lanes install; then, at the end of the file, three certified
// AVX-512F kernels that approximate the dot, L1 and RotatE scores in float32
// for the 512-bit lane's rank path, sixteen candidates a ZMM register — an
// FMA dot product walked four queries at a time, an L1 distance summed as
// Q + C − 2·Σmax(q, c), and RotatE's modulus with VRSQRT14PS as its root —
// over a float32 tile whose column stride is n rounded up to 16.
// tile_amd64.go's init installs them.
//
// The four lanes of a YMM register (sixteen of a ZMM register) hold
// *candidates*, never dims of one candidate. A twin's lane therefore
// performs, in order, exactly the scalar kernel's operations for its
// candidate: one rounded multiply and one rounded add per dim for the dot
// product (VMULPD then VADDPD — never a fused multiply-add, which would round
// once), subtract / clear sign / add for L1, and subtract, subtract, square,
// square, add, square root, add for the complex modulus. No reduction runs
// across lanes, so every score a twin writes has the bits the Go kernel gives
// it. The three certified kernels, dotTile16, l1Tile16 and rotTile16, keep
// the lane layout and the dim order but not the bits or the width: each
// promises a bound on its distance from the Go kernel's float64 score,
// proved where it is defined below, and the rank path rescores whatever
// that bound cannot settle.
//
// Each AVX2 kernel walks the tile in groups of 32, 16, 8 and 4 candidates —
// 8, 4, 2 or 1 independent accumulators — and streams every query over a
// group before moving on. All three share one loop nest, WALK; they differ
// in the per-dim step and in how a finished accumulator is stored.
//
// Registers, the AVX2 kernels (the 512-bit ones list theirs below):
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

// The rank path's kernels, in float32 on the 512-bit lane. A ZMM register
// holds sixteen candidates. Each kernel reads the block's queries rounded to
// float32 (qs) and a float32 candidate-minor tile filled by
// store.TileColumns32 (cols[k*S+t], S the tile's candidate count n rounded up
// to a multiple of 16: every column is whole registers), and writes each
// score widened to float64 (VCVTPS2PD) into out. The lanes past n in the
// last register hold whatever the buffer held; they are computed like the
// others and never stored: K2 and K3 mask the two float64 halves of that
// register's store, K1 is every lane. No score is exact. Each kernel
// promises a bound on its distance from the Go kernel's float64 score,
// proved at its head below; kgc's certBound states it per query, gates the
// inputs it does not cover, and the rank path rescores whatever the bound
// cannot settle.
//
// The rounding of the inputs. Every value v of a query or candidate becomes
// ṽ = float32(v), with |ṽ − v| ≤ u·|v| + η, u = 2⁻²⁴ and η = 2⁻¹⁵⁰ (half the
// spacing of float32's subnormals), as long as |v| stays far below 2¹²⁸,
// which the gates keep: certBound refuses every query whose ‖q‖₁ or whose
// tile's max|c| passes 2¹⁰⁰ (2⁶⁰ for RotatE). A float32 sum or fused step
// rounds by at most u relative, or η absolute where its result is below
// 2⁻¹²⁶; a sum or difference of two floats that lands there is exact. With
// n·u ≤ 2⁻¹⁰ (certBound refuses dims past 2¹⁴), γₙ = n·u/(1 − n·u) ≤
// n·u·(1 + 2⁻⁹).
//
// Each kernel walks the tile in groups of 64, 32 and 16 lanes (four, two
// and one ZMM registers a query); the group that ends the tile stores its
// last register through K2 and K3 (K4 and K5 hold the masks of the current
// group's last register). The dot and L1 kernels take the queries four at a
// time, then one at a time; RotatE one at a time.
//
// Registers of all three:
//	SI   cursor in qs
//	R8   queries left in this group
//	R9   cols of this group's first lane
//	CX   lanes left in the tile (a multiple of 16)
//	DI   out for this group, first query
//	DX   out for this group, current query
//	AX   dims left in this query
//	R11  cursor in cols, one row of the tile per dim
//	R12  out row stride in bytes (nc*8)
//	R13  cols row stride in bytes (S*4)
//	R10  query stride in bytes (dim*4); RotatE: from a real part to its
//	     imaginary part in qs (half*4)
//	Z30-Z31  the two float64 halves of a register being stored

// ZZ clears a ZMM register with an AVX-512F instruction (VPXORQ, not the DQ
// subset's VXORPS on ZMM).
#define ZZ(r) \
	VPXORQ r, r, r

// SETUP16 loads the arguments and sets the store masks: K1 every float64
// lane, K2 and K3 the low and high halves of the candidates of the tile's
// last register.
#define SETUP16 \
	MOVQ  n+32(FP), CX; \
	NEGQ  CX; \
	ANDQ  $15, CX; \
	MOVL  $0xffff, AX; \
	SHRL  CX, AX; \
	KMOVW AX, K2; \
	SHRL  $8, AX; \
	KMOVW AX, K3; \
	MOVL  $0xff, AX; \
	KMOVW AX, K1; \
	MOVQ  cols+16(FP), R9; \
	MOVQ  n+32(FP), CX; \
	ADDQ  $15, CX; \
	ANDQ  $-16, CX; \
	MOVQ  out+40(FP), DI; \
	MOVQ  nc+48(FP), R12; \
	SHLQ  $3, R12; \
	MOVQ  CX, R13; \
	SHLQ  $2, R13; \
	MOVQ  dim+24(FP), R10; \
	SHLQ  $2, R10

// GROUPMASK sets K4 and K5 for a group of W lanes: K2 and K3 where the
// group ends the tile, K1 otherwise.
#define GROUPMASK(W, mid) \
	KMOVW K1, K4; \
	KMOVW K1, K5; \
	CMPQ  CX, $W; \
	JNE   mid; \
	KMOVW K2, K4; \
	KMOVW K3, K5; \
mid:

// PUT16 widens the sixteen float32 scores of acc (accy its low half) and
// stores them at lo and hi under the masks klo and khi.
#define PUT16(acc, accy, lo, hi, klo, khi) \
	VCVTPS2PD     accy, Z30; \
	VEXTRACTF64X4 $1, acc, Y31; \
	VCVTPS2PD     Y31, Z31; \
	VMOVUPD       Z30, klo, lo; \
	VMOVUPD       Z31, khi, hi

// WALK16 scores the queries against W lanes at a time while W remain, four
// queries at a time (QUAD) while four remain, then one at a time (ONE).
// PRE runs once a group, before its first query; ZQ/Z1 clear the
// accumulators, STEPQ/STEP1 are one dim (with their loads), STOREQ/STORE1
// write the scores. NEXT1 moves SI from the end of a lone query's dims to
// the next query; QUAD is QUADS or NOQUAD.
#define WALK16(W, group, mid, quad, quadk, one, onek, gdone, next, PRE, QUAD, ZQ, STEPQ, STOREQ, DIMS, Z1, STEP1, NEXT1, STORE1) \
group: \
	CMPQ CX, $W; \
	JLT  next; \
	GROUPMASK(W, mid); \
	PRE; \
	MOVQ qs+0(FP), SI; \
	MOVQ nq+8(FP), R8; \
	MOVQ DI, DX; \
	QUAD(quad, quadk, one, ZQ, STEPQ, STOREQ); \
one: \
	TESTQ R8, R8; \
	JZ    gdone; \
	DIMS; \
	MOVQ  R9, R11; \
	Z1; \
onek: \
	STEP1; \
	ADDQ  $4, SI; \
	ADDQ  R13, R11; \
	DECQ  AX; \
	JNZ   onek; \
	NEXT1; \
	STORE1; \
	ADDQ  R12, DX; \
	DECQ  R8; \
	JMP   one; \
gdone: \
	ADDQ $(W*4), R9; \
	ADDQ $(W*8), DI; \
	SUBQ $W, CX; \
	JMP  group

// QUADS walks four queries at a time: their values at (SI), (SI)(R10*1),
// (SI)(R10*2) and (SI)(BX*1), their scores at (DX), (DX)(R12*1),
// (DX)(R12*2) and (DX)(R14*1) (BX = 3·R10, R14 = 3·R12).
#define QUADS(quad, quadk, one, ZQ, STEPQ, STOREQ) \
quad: \
	CMPQ R8, $4; \
	JLT  one; \
	MOVQ dim+24(FP), AX; \
	MOVQ R9, R11; \
	ZQ; \
quadk: \
	VBROADCASTSS (SI), Z20; \
	VBROADCASTSS (SI)(R10*1), Z21; \
	VBROADCASTSS (SI)(R10*2), Z22; \
	VBROADCASTSS (SI)(BX*1), Z23; \
	STEPQ; \
	ADDQ $4, SI; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  quadk; \
	ADDQ BX, SI; \
	STOREQ; \
	LEAQ (DX)(R12*4), DX; \
	SUBQ $4, R8; \
	JMP  quad
#define NOQUAD(quad, quadk, one, ZQ, STEPQ, STOREQ)

#define ALLDIMS16 \
	MOVQ dim+24(FP), AX
#define BCAST16 \
	VBROADCASTSS (SI), Z20

// The four rows of a quad's scores.
#define ROWA(acc, accy, lo, hi, klo, khi) PUT16(acc, accy, lo(DX), hi(DX), klo, khi)
#define ROWB(acc, accy, lo, hi, klo, khi) PUT16(acc, accy, lo(DX)(R12*1), hi(DX)(R12*1), klo, khi)
#define ROWC(acc, accy, lo, hi, klo, khi) PUT16(acc, accy, lo(DX)(R12*2), hi(DX)(R12*2), klo, khi)
#define ROWD(acc, accy, lo, hi, klo, khi) PUT16(acc, accy, lo(DX)(R14*1), hi(DX)(R14*1), klo, khi)

// The dot kernel: acc += q̃[k]·c̃[k], one VFMADD231PS a dim, for k in order.
// Each accumulator runs the same FMAs on the same values in the quad walk
// and alone, so a score has the same bits whatever queries ride with it.
//
// Why that is safe for a rank. With p = q·c and p̃ = q̃·c̃ (exact products),
// |p̃ − p| ≤ (2u + u²)·|q||c| + η·(1 + u)·(|q| + |c|) + η², so over the n = dim
// products, with N = ‖q‖₁ and M = max|c|,
//	Σ|p̃ − p| ≤ (2u + u²)·N·M + η·(1 + u)·(N + n·M) + n·η².
// The kernel's f adds the p̃ in order, one rounding a step (the product is
// exact inside the FMA): |f − Σp̃| ≤ (n·u·Σ|p̃| + n·η)/(1 − n·u). The Go
// kernel's s lies within (n + 1)·2⁻⁵²·N·M + n·2⁻¹⁰⁷³ of Σp. Together, with
// Σ|p̃| ≤ (1 + 3u)·N·M + 2η·(N + n·M),
//	|f − s| ≤ (n + 2)·u·(1 + 2⁻⁸)·N·M + η·(1 + 2⁻⁸)·(N + n·M + n),
// and kgc's certBound states it with (1 + 2⁻⁷) for the roundings of N and of
// the bound itself. N·M ≤ 2¹⁰⁰ with N, M ≤ 2¹⁰⁰ keeps every float32 product
// and sum finite, and every float64 one. A NaN among a candidate's values
// makes its f NaN, which the rank path never settles; a NaN or infinite
// query value makes N fail the gate.
//
// Registers:
//	BX       three query strides (3·dim·4): the quad's fourth query
//	R14      three out rows (3·nc·8): its scores
//	Z0-Z15   accumulators, four registers per query (query a Z0-Z3, b Z4-Z7, …)
//	Z16-Z19  the group's candidates at dim k
//	Z20-Z23  broadcast q̃[k] of the four queries

#define COLS64S VMOVUPS (R11), Z16; VMOVUPS 64(R11), Z17; VMOVUPS 128(R11), Z18; VMOVUPS 192(R11), Z19
#define COLS32S VMOVUPS (R11), Z16; VMOVUPS 64(R11), Z17
#define COLS16S VMOVUPS (R11), Z16

#define DZQ64 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3); ZZ(Z4); ZZ(Z5); ZZ(Z6); ZZ(Z7); ZZ(Z8); ZZ(Z9); ZZ(Z10); ZZ(Z11); ZZ(Z12); ZZ(Z13); ZZ(Z14); ZZ(Z15)
#define DZ164 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3)
#define DSTEPQ64 COLS64S; VFMADD231PS Z16, Z20, Z0; VFMADD231PS Z17, Z20, Z1; VFMADD231PS Z18, Z20, Z2; VFMADD231PS Z19, Z20, Z3; VFMADD231PS Z16, Z21, Z4; VFMADD231PS Z17, Z21, Z5; VFMADD231PS Z18, Z21, Z6; VFMADD231PS Z19, Z21, Z7; VFMADD231PS Z16, Z22, Z8; VFMADD231PS Z17, Z22, Z9; VFMADD231PS Z18, Z22, Z10; VFMADD231PS Z19, Z22, Z11; VFMADD231PS Z16, Z23, Z12; VFMADD231PS Z17, Z23, Z13; VFMADD231PS Z18, Z23, Z14; VFMADD231PS Z19, Z23, Z15
#define DSTEP164 BCAST16; COLS64S; VFMADD231PS Z16, Z20, Z0; VFMADD231PS Z17, Z20, Z1; VFMADD231PS Z18, Z20, Z2; VFMADD231PS Z19, Z20, Z3
#define DPUTQ64 ROWA(Z0, Y0, 0, 64, K1, K1); ROWA(Z1, Y1, 128, 192, K1, K1); ROWA(Z2, Y2, 256, 320, K1, K1); ROWA(Z3, Y3, 384, 448, K4, K5); ROWB(Z4, Y4, 0, 64, K1, K1); ROWB(Z5, Y5, 128, 192, K1, K1); ROWB(Z6, Y6, 256, 320, K1, K1); ROWB(Z7, Y7, 384, 448, K4, K5); ROWC(Z8, Y8, 0, 64, K1, K1); ROWC(Z9, Y9, 128, 192, K1, K1); ROWC(Z10, Y10, 256, 320, K1, K1); ROWC(Z11, Y11, 384, 448, K4, K5); ROWD(Z12, Y12, 0, 64, K1, K1); ROWD(Z13, Y13, 128, 192, K1, K1); ROWD(Z14, Y14, 256, 320, K1, K1); ROWD(Z15, Y15, 384, 448, K4, K5)
#define DPUT164 ROWA(Z0, Y0, 0, 64, K1, K1); ROWA(Z1, Y1, 128, 192, K1, K1); ROWA(Z2, Y2, 256, 320, K1, K1); ROWA(Z3, Y3, 384, 448, K4, K5)
#define DZQ32 ZZ(Z0); ZZ(Z1); ZZ(Z4); ZZ(Z5); ZZ(Z8); ZZ(Z9); ZZ(Z12); ZZ(Z13)
#define DZ132 ZZ(Z0); ZZ(Z1)
#define DSTEPQ32 COLS32S; VFMADD231PS Z16, Z20, Z0; VFMADD231PS Z17, Z20, Z1; VFMADD231PS Z16, Z21, Z4; VFMADD231PS Z17, Z21, Z5; VFMADD231PS Z16, Z22, Z8; VFMADD231PS Z17, Z22, Z9; VFMADD231PS Z16, Z23, Z12; VFMADD231PS Z17, Z23, Z13
#define DSTEP132 BCAST16; COLS32S; VFMADD231PS Z16, Z20, Z0; VFMADD231PS Z17, Z20, Z1
#define DPUTQ32 ROWA(Z0, Y0, 0, 64, K1, K1); ROWA(Z1, Y1, 128, 192, K4, K5); ROWB(Z4, Y4, 0, 64, K1, K1); ROWB(Z5, Y5, 128, 192, K4, K5); ROWC(Z8, Y8, 0, 64, K1, K1); ROWC(Z9, Y9, 128, 192, K4, K5); ROWD(Z12, Y12, 0, 64, K1, K1); ROWD(Z13, Y13, 128, 192, K4, K5)
#define DPUT132 ROWA(Z0, Y0, 0, 64, K1, K1); ROWA(Z1, Y1, 128, 192, K4, K5)
#define DZQ16 ZZ(Z0); ZZ(Z4); ZZ(Z8); ZZ(Z12)
#define DZ116 ZZ(Z0)
#define DSTEPQ16 COLS16S; VFMADD231PS Z16, Z20, Z0; VFMADD231PS Z16, Z21, Z4; VFMADD231PS Z16, Z22, Z8; VFMADD231PS Z16, Z23, Z12
#define DSTEP116 BCAST16; COLS16S; VFMADD231PS Z16, Z20, Z0
#define DPUTQ16 ROWA(Z0, Y0, 0, 64, K4, K5); ROWB(Z4, Y4, 0, 64, K4, K5); ROWC(Z8, Y8, 0, 64, K4, K5); ROWD(Z12, Y12, 0, 64, K4, K5)
#define DPUT116 ROWA(Z0, Y0, 0, 64, K4, K5)

// func dotTile16(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int)
TEXT ·dotTile16(SB), NOSPLIT, $0-56
	SETUP16
	LEAQ (R10)(R10*2), BX
	LEAQ (R12)(R12*2), R14
	WALK16(64, d64, d64m, d64q, d64qk, d64o, d64ok, d64d, d32, NOP0, QUADS, DZQ64, DSTEPQ64, DPUTQ64, ALLDIMS16, DZ164, DSTEP164, NOP0, DPUT164)
	WALK16(32, d32, d32m, d32q, d32qk, d32o, d32ok, d32d, d16, NOP0, QUADS, DZQ32, DSTEPQ32, DPUTQ32, ALLDIMS16, DZ132, DSTEP132, NOP0, DPUT132)
	WALK16(16, d16, d16m, d16q, d16qk, d16o, d16ok, d16d, ddone, NOP0, QUADS, DZQ16, DSTEPQ16, DPUTQ16, ALLDIMS16, DZ116, DSTEP116, NOP0, DPUT116)
ddone:
	VZEROUPPER
	RET

// The L1 kernel writes each score as f = fl(fl(Q + C) − 2M), from
//	−Σₖ|q̃[k] − c̃[k]| = Σₖq̃[k] + Σₖc̃[k] − 2·Σₖmax(q̃[k], c̃[k]),
// M the lane's running sum of max(q̃[k], c̃[k]) (VMAXPS then VADDPS: one
// operation fewer a dim than subtract, clear the sign, add), Q the query's
// sum of q̃[k] and C the candidate's sum of c̃[k], each added in dim order
// from zero. C is taken once a group, before its first query; the last step
// is one VFNMADD231PS, T − 2·M rounded once.
//
// Why that is safe for a rank. With n = dim, N = ‖q‖₁, M = max|c| and
// A = N + n·M:
//   - the exact D̃ = Σ|q̃[k] − c̃[k]| lies within u·A + 2n·η of
//     D = Σ|q[k] − c[k]|, and the Go kernel's −s within n·2⁻⁵²·A of D;
//   - Q, C and M are float32 sums of n terms, n − 1 roundings each, whose
//     magnitudes add up to at most Σ|q̃|, Σ|c̃| and Σ|q̃| + Σ|c̃|, so with
//     Ã = Σ|q̃| + Σ|c̃| ≤ (1 + u)·A + 2n·η they miss their exact sums by at
//     most 3γₙ₋₁·Ã together, M's factor two included; a sum that lands
//     below 2⁻¹²⁶ is exact;
//   - T = fl(Q + C) rounds by at most u·(1 + γₙ₋₁)·Ã, and the last step by
//     at most u·|f| (f = x·(1 + δ) for the exact x, |δ| ≤ u; a difference
//     below 2⁻¹²⁶ is exact).
// Together |f − s| ≤ (3n − 1)·u·(1 + 2⁻⁸)·A + 2n·η·(1 + 2⁻⁸) + u·|f|, which kgc's
// certBound states with (1 + 2⁻⁷). With A ≤ 2¹⁰⁰ no float32 sum overflows.
// A NaN among a candidate's values makes its C, and so its f, NaN
// whichever operand VMAXPS passes on; a NaN query fails the gate.
//
// A candidate equal to the query scores exactly 0, as in the Go kernel: M,
// Q and C then add the same float32 values in the same order, and T − 2·M
// is 2Q − 2Q.
//
// Registers beyond the dot kernel's (BX, R14, Z0-Z15, Z20-Z23 as there):
//	Z16-Z19  C of the group's candidates
//	Z24-Z27  Q of the four queries (Z24 alone)
//	Z28      max(q̃[k], c̃[k]), then T
//	Z29      2.0 in every lane

// C of a group of four, two or one registers of candidates; AX and R11 are
// free until the group's first query sets them.
#define CSUM16(lbl, STEP) \
	MOVQ dim+24(FP), AX; \
	MOVQ R9, R11; \
	ZZ(Z16); ZZ(Z17); ZZ(Z18); ZZ(Z19); \
lbl: \
	STEP; \
	ADDQ R13, R11; \
	DECQ AX; \
	JNZ  lbl
#define CADD64S VADDPS (R11), Z16, Z16; VADDPS 64(R11), Z17, Z17; VADDPS 128(R11), Z18, Z18; VADDPS 192(R11), Z19, Z19
#define CADD32S VADDPS (R11), Z16, Z16; VADDPS 64(R11), Z17, Z17
#define CADD16S VADDPS (R11), Z16, Z16

// acc += max(q, cols at off)
#define MAXS(off, q, acc) \
	VMAXPS off(R11), q, Z28; \
	VADDPS Z28, acc, acc

// The score of one register of candidates: T = Q + C, then T − 2·M.
#define FIN16(acc, c, qsum) \
	VADDPS       c, qsum, Z28; \
	VFNMADD231PS Z29, acc, Z28

#define LCSUM64 CSUM16(l64c, CADD64S)
#define LZQ64 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3); ZZ(Z4); ZZ(Z5); ZZ(Z6); ZZ(Z7); ZZ(Z8); ZZ(Z9); ZZ(Z10); ZZ(Z11); ZZ(Z12); ZZ(Z13); ZZ(Z14); ZZ(Z15); ZZ(Z24); ZZ(Z25); ZZ(Z26); ZZ(Z27)
#define LZ164 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3); ZZ(Z24)
#define LSTEPQ64 VADDPS Z20, Z24, Z24; VADDPS Z21, Z25, Z25; VADDPS Z22, Z26, Z26; VADDPS Z23, Z27, Z27; MAXS(0, Z20, Z0); MAXS(64, Z20, Z1); MAXS(128, Z20, Z2); MAXS(192, Z20, Z3); MAXS(0, Z21, Z4); MAXS(64, Z21, Z5); MAXS(128, Z21, Z6); MAXS(192, Z21, Z7); MAXS(0, Z22, Z8); MAXS(64, Z22, Z9); MAXS(128, Z22, Z10); MAXS(192, Z22, Z11); MAXS(0, Z23, Z12); MAXS(64, Z23, Z13); MAXS(128, Z23, Z14); MAXS(192, Z23, Z15)
#define LSTEP164 BCAST16; VADDPS Z20, Z24, Z24; MAXS(0, Z20, Z0); MAXS(64, Z20, Z1); MAXS(128, Z20, Z2); MAXS(192, Z20, Z3)
#define LPUTQ64 FIN16(Z0, Z16, Z24); ROWA(Z28, Y28, 0, 64, K1, K1); FIN16(Z1, Z17, Z24); ROWA(Z28, Y28, 128, 192, K1, K1); FIN16(Z2, Z18, Z24); ROWA(Z28, Y28, 256, 320, K1, K1); FIN16(Z3, Z19, Z24); ROWA(Z28, Y28, 384, 448, K4, K5); FIN16(Z4, Z16, Z25); ROWB(Z28, Y28, 0, 64, K1, K1); FIN16(Z5, Z17, Z25); ROWB(Z28, Y28, 128, 192, K1, K1); FIN16(Z6, Z18, Z25); ROWB(Z28, Y28, 256, 320, K1, K1); FIN16(Z7, Z19, Z25); ROWB(Z28, Y28, 384, 448, K4, K5); FIN16(Z8, Z16, Z26); ROWC(Z28, Y28, 0, 64, K1, K1); FIN16(Z9, Z17, Z26); ROWC(Z28, Y28, 128, 192, K1, K1); FIN16(Z10, Z18, Z26); ROWC(Z28, Y28, 256, 320, K1, K1); FIN16(Z11, Z19, Z26); ROWC(Z28, Y28, 384, 448, K4, K5); FIN16(Z12, Z16, Z27); ROWD(Z28, Y28, 0, 64, K1, K1); FIN16(Z13, Z17, Z27); ROWD(Z28, Y28, 128, 192, K1, K1); FIN16(Z14, Z18, Z27); ROWD(Z28, Y28, 256, 320, K1, K1); FIN16(Z15, Z19, Z27); ROWD(Z28, Y28, 384, 448, K4, K5)
#define LPUT164 FIN16(Z0, Z16, Z24); ROWA(Z28, Y28, 0, 64, K1, K1); FIN16(Z1, Z17, Z24); ROWA(Z28, Y28, 128, 192, K1, K1); FIN16(Z2, Z18, Z24); ROWA(Z28, Y28, 256, 320, K1, K1); FIN16(Z3, Z19, Z24); ROWA(Z28, Y28, 384, 448, K4, K5)
#define LCSUM32 CSUM16(l32c, CADD32S)
#define LZQ32 ZZ(Z0); ZZ(Z1); ZZ(Z4); ZZ(Z5); ZZ(Z8); ZZ(Z9); ZZ(Z12); ZZ(Z13); ZZ(Z24); ZZ(Z25); ZZ(Z26); ZZ(Z27)
#define LZ132 ZZ(Z0); ZZ(Z1); ZZ(Z24)
#define LSTEPQ32 VADDPS Z20, Z24, Z24; VADDPS Z21, Z25, Z25; VADDPS Z22, Z26, Z26; VADDPS Z23, Z27, Z27; MAXS(0, Z20, Z0); MAXS(64, Z20, Z1); MAXS(0, Z21, Z4); MAXS(64, Z21, Z5); MAXS(0, Z22, Z8); MAXS(64, Z22, Z9); MAXS(0, Z23, Z12); MAXS(64, Z23, Z13)
#define LSTEP132 BCAST16; VADDPS Z20, Z24, Z24; MAXS(0, Z20, Z0); MAXS(64, Z20, Z1)
#define LPUTQ32 FIN16(Z0, Z16, Z24); ROWA(Z28, Y28, 0, 64, K1, K1); FIN16(Z1, Z17, Z24); ROWA(Z28, Y28, 128, 192, K4, K5); FIN16(Z4, Z16, Z25); ROWB(Z28, Y28, 0, 64, K1, K1); FIN16(Z5, Z17, Z25); ROWB(Z28, Y28, 128, 192, K4, K5); FIN16(Z8, Z16, Z26); ROWC(Z28, Y28, 0, 64, K1, K1); FIN16(Z9, Z17, Z26); ROWC(Z28, Y28, 128, 192, K4, K5); FIN16(Z12, Z16, Z27); ROWD(Z28, Y28, 0, 64, K1, K1); FIN16(Z13, Z17, Z27); ROWD(Z28, Y28, 128, 192, K4, K5)
#define LPUT132 FIN16(Z0, Z16, Z24); ROWA(Z28, Y28, 0, 64, K1, K1); FIN16(Z1, Z17, Z24); ROWA(Z28, Y28, 128, 192, K4, K5)
#define LCSUM16 CSUM16(l16c, CADD16S)
#define LZQ16 ZZ(Z0); ZZ(Z4); ZZ(Z8); ZZ(Z12); ZZ(Z24); ZZ(Z25); ZZ(Z26); ZZ(Z27)
#define LZ116 ZZ(Z0); ZZ(Z24)
#define LSTEPQ16 VADDPS Z20, Z24, Z24; VADDPS Z21, Z25, Z25; VADDPS Z22, Z26, Z26; VADDPS Z23, Z27, Z27; MAXS(0, Z20, Z0); MAXS(0, Z21, Z4); MAXS(0, Z22, Z8); MAXS(0, Z23, Z12)
#define LSTEP116 BCAST16; VADDPS Z20, Z24, Z24; MAXS(0, Z20, Z0)
#define LPUTQ16 FIN16(Z0, Z16, Z24); ROWA(Z28, Y28, 0, 64, K4, K5); FIN16(Z4, Z16, Z25); ROWB(Z28, Y28, 0, 64, K4, K5); FIN16(Z8, Z16, Z26); ROWC(Z28, Y28, 0, 64, K4, K5); FIN16(Z12, Z16, Z27); ROWD(Z28, Y28, 0, 64, K4, K5)
#define LPUT116 FIN16(Z0, Z16, Z24); ROWA(Z28, Y28, 0, 64, K4, K5)

// func l1Tile16(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int)
TEXT ·l1Tile16(SB), NOSPLIT, $0-56
	SETUP16
	LEAQ         (R10)(R10*2), BX
	LEAQ         (R12)(R12*2), R14
	MOVL         $0x40000000, AX
	VPBROADCASTD AX, Z29
	WALK16(64, l64, l64m, l64q, l64qk, l64o, l64ok, l64d, l32, LCSUM64, QUADS, LZQ64, LSTEPQ64, LPUTQ64, ALLDIMS16, LZ164, LSTEP164, NOP0, LPUT164)
	WALK16(32, l32, l32m, l32q, l32qk, l32o, l32ok, l32d, l16, LCSUM32, QUADS, LZQ32, LSTEPQ32, LPUTQ32, ALLDIMS16, LZ132, LSTEP132, NOP0, LPUT132)
	WALK16(16, l16, l16m, l16q, l16qk, l16o, l16ok, l16d, ldone16, LCSUM16, QUADS, LZQ16, LSTEPQ16, LPUTQ16, ALLDIMS16, LZ116, LSTEP116, NOP0, LPUT116)
ldone16:
	VZEROUPPER
	RET

// The RotatE kernel. Each lane forms Δre = q̃.re − c̃.re and Δim likewise,
// x = Δre² + Δim² with one multiply and one FMA, takes y = VRSQRT14PS(x),
// and adds x·y ≈ √x to its sum with one more FMA; the score is the sum
// negated. The queries go one at a time. Neither kernel of the lane has a
// divider in its path: VSQRTPD, which every exact RotatE kernel needs, is
// the bottleneck there.
//
// The root. y = VRSQRT14PS(x) has |y·√x − 1| < ε = 2⁻¹⁴ for every positive
// finite x, subnormal included, so the term t = x·y, exact inside the FMA,
// is √x·(1 + θ) with |θ| < ε. x = 0 gives y = +Inf and t = 0·∞ = NaN: the
// approximation of such a candidate is NaN, which the rank path never
// settles.
//
// Why that is safe for a rank. Per complex dim, with a and b the exact
// differences of the float64 values, r = √(a² + b²) and r̃ = √(Δre² + Δim²):
//   - Δre is the float32 difference of q̃.re and c̃.re, each within u·|v| + η
//     of its value, so |Δre − a| ≤ u·|a| + (1 + u)·e_re with
//     e_re = u·(|q.re| + |c.re|) + 2η, and by the triangle inequality
//     |r̃ − r| ≤ u·r + (1 + u)·(e_re + e_im);
//   - x lies within (2u + u²)·r̃² + (2 + u)·η of r̃², so |√x − r̃| ≤
//     (u + 2u²)·r̃ + ρ, ρ = √((2 + u)·η) < 0.71·2⁻⁷⁴;
//   - the kernel's sum F = −f of the n = dim/2 terms t is within
//     (n·u·Σt + n·η)/(1 − n·u) of Σt, and the Go kernel's −s within
//     n·2⁻⁵⁰·R + n·2⁻⁵³⁶ of R = Σr.
// Chaining these from F back to R, with E = Σ(e_re + e_im) ≤
// u·(N + 2n·M) + 4n·η (N = ‖q‖₁, M = max|c|),
//	|f − s| ≤ (ε + (n + 4)·u·(1 + 2⁻⁷))·|f| + u·(1 + 2⁻²⁰)·(N + 2n·M) + n·0.72·2⁻⁷⁴,
// the products ε·n·u and ε² among the (n + 4)·u·2⁻⁷, which kgc's certBound
// states as Rel = 2⁻¹⁴ + (n + 4)·2⁻²⁴·(1 + 2⁻⁷) and
// Abs = 2⁻²⁴·(1 + 2⁻⁷)·(N + 2n·M) + n·2⁻⁷⁴ for n ≤ 2¹³. N, M ≤ 2⁶⁰ keeps
// every x below 2¹²⁴, finite.
//
// Registers:
//	BX       bytes from a real row of cols to its imaginary row (half·S·4)
//	R14      bytes from the end of a query's real half to the next query
//	Z0-Z3    accumulators, one per register of the group
//	Z4-Z7    Δre, then y
//	Z8-Z11   Δim, then x
//	Z12-Z13  broadcast q̃.re and q̃.im
//	Z14      the float32 sign bit

// acc += √(x) for the candidates at off, approximately, as x·VRSQRT14PS(x).
#define ROOT16(off, d, x, acc) \
	VSUBPS      off(R11), Z12, d; \
	VSUBPS      off(R11)(BX*1), Z13, x; \
	VMULPS      x, x, x; \
	VFMADD231PS d, d, x; \
	VRSQRT14PS  x, d; \
	VFMADD231PS d, x, acc

#define RBCAST16 \
	VBROADCASTSS (SI), Z12; \
	VBROADCASTSS (SI)(R10*1), Z13
#define HALFDIMS16 \
	MOVQ R10, AX; \
	SHRQ $2, AX
#define SKIPIM16 \
	ADDQ R14, SI

// Negated, widened and stored.
#define RPUT(acc, accy, lo, hi, klo, khi) \
	VPXORD Z14, acc, acc; \
	ROWA(acc, accy, lo, hi, klo, khi)

#define RZ64 ZZ(Z0); ZZ(Z1); ZZ(Z2); ZZ(Z3)
#define RSTEP64 RBCAST16; ROOT16(0, Z4, Z8, Z0); ROOT16(64, Z5, Z9, Z1); ROOT16(128, Z6, Z10, Z2); ROOT16(192, Z7, Z11, Z3)
#define RPUT64 RPUT(Z0, Y0, 0, 64, K1, K1); RPUT(Z1, Y1, 128, 192, K1, K1); RPUT(Z2, Y2, 256, 320, K1, K1); RPUT(Z3, Y3, 384, 448, K4, K5)
#define RZ32 ZZ(Z0); ZZ(Z1)
#define RSTEP32 RBCAST16; ROOT16(0, Z4, Z8, Z0); ROOT16(64, Z5, Z9, Z1)
#define RPUT32 RPUT(Z0, Y0, 0, 64, K1, K1); RPUT(Z1, Y1, 128, 192, K4, K5)
#define RZ16 ZZ(Z0)
#define RSTEP16 RBCAST16; ROOT16(0, Z4, Z8, Z0)
#define RPUT16 RPUT(Z0, Y0, 0, 64, K4, K5)

// func rotTile16(qs *float32, nq int, cols *float32, dim, n int, out *float64, nc int)
//
// dim counts real values; the kernel sums over the dim/2 complex dims and,
// like the Go kernel, never reads a trailing odd value.
TEXT ·rotTile16(SB), NOSPLIT, $0-56
	SETUP16
	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z14
	MOVQ         R10, R14
	SHRQ         $3, R10
	SHLQ         $2, R10        // half*4: from a real part to its imaginary part
	SUBQ         R10, R14       // (dim - half)*4: from the end of the real half to the next query
	MOVQ         R10, BX
	SHRQ         $2, BX
	IMULQ        R13, BX        // half rows of cols, in bytes
	WALK16(64, r64, r64m, r64q, r64qk, r64o, r64ok, r64d, r32, NOP0, NOQUAD, NOP0, NOP0, NOP0, HALFDIMS16, RZ64, RSTEP64, SKIPIM16, RPUT64)
	WALK16(32, r32, r32m, r32q, r32qk, r32o, r32ok, r32d, r16, NOP0, NOQUAD, NOP0, NOP0, NOP0, HALFDIMS16, RZ32, RSTEP32, SKIPIM16, RPUT32)
	WALK16(16, r16, r16m, r16q, r16qk, r16o, r16ok, r16d, rdone16, NOP0, NOQUAD, NOP0, NOP0, NOP0, HALFDIMS16, RZ16, RSTEP16, SKIPIM16, RPUT16)
rdone16:
	VZEROUPPER
	RET
