//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 and AVX-512F twins of rowAccGo (scoring.go), the query builders'
// inner loop: out[k] += c[u]·rows[u*stride+k] for u = 0 .. nrows-1 in turn.
//
// The four lanes of a YMM register (eight of a ZMM) hold four (eight)
// *outputs* k, never rows u. A lane therefore performs, in order, exactly
// the Go loop's operations for its output: one rounded multiply and one
// rounded add per row (VMULPD then VADDPD — never a fused multiply-add,
// which would round once), rows in ascending u. No sum runs across lanes,
// so every output has the bits the Go loop gives it. With skipZero set a row whose coefficient is +0 or -0 is
// passed over, as the Go loop's c == 0 does; a NaN coefficient is not
// (VUCOMISD sets ZF for equal and for unordered; PF set means unordered).
//
// rowAccAVX2 walks the outputs in groups of 32, 16, 8, 4 and 1 — eight,
// four, two and one YMM accumulators, then one scalar — and each group stays
// in registers across a whole sweep of the rows, loaded from out before it
// and stored after.
//
// Registers:
//	DI   out, at this group's first output
//	CX   outputs left
//	R9   rows, at this group's first output
//	R13  row stride in bytes (stride*8)
//	BX   skipZero
//	SI   cursor in c
//	R8   rows left in this sweep
//	R11  cursor in rows, at this group's outputs of the current row
//	Y0-Y7   accumulators
//	Y8      temporary
//	Y12     broadcast c[u]
//	X14     zero

// acc += c[u] * row[lanes]
#define STEP(acc, off) \
	VMULPD off(R11), Y12, Y8; \
	VADDPD Y8, acc, acc

// SWEEP adds every row into W outputs at a time while at least W remain,
// then falls through to the next narrower group. LOAD and STORE move the
// accumulators from and to out, STEPS is one row for all of them.
#define SWEEP(W, group, row, take, skip, next, LOAD, STEPS, STORE) \
	SWEEPW(W, group, row, take, skip, next, LOAD, STEPS, STORE, Y12)

// SWEEPW is SWEEP with the coefficient broadcast into C, Y12 or Z12.
#define SWEEPW(W, group, row, take, skip, next, LOAD, STEPS, STORE, C) \
group: \
	CMPQ CX, $W; \
	JLT  next; \
	LOAD; \
	MOVQ c+16(FP), SI; \
	MOVQ nrows+24(FP), R8; \
	MOVQ R9, R11; \
row: \
	VBROADCASTSD (SI), C; \
	TESTQ BX, BX; \
	JZ   take; \
	VUCOMISD X14, X12; \
	JNE  take; \
	JPC  skip; \
take: \
	STEPS; \
skip: \
	ADDQ $8, SI; \
	ADDQ R13, R11; \
	DECQ R8; \
	JNZ  row; \
	STORE; \
	ADDQ $(W*8), DI; \
	ADDQ $(W*8), R9; \
	SUBQ $W, CX; \
	JMP  group

#define LOAD1 VMOVUPD 0(DI), Y0
#define LOAD2 LOAD1; VMOVUPD 32(DI), Y1
#define LOAD4 LOAD2; VMOVUPD 64(DI), Y2; VMOVUPD 96(DI), Y3
#define LOAD8 LOAD4; VMOVUPD 128(DI), Y4; VMOVUPD 160(DI), Y5; VMOVUPD 192(DI), Y6; VMOVUPD 224(DI), Y7

#define STEP1 STEP(Y0, 0)
#define STEP2 STEP1; STEP(Y1, 32)
#define STEP4 STEP2; STEP(Y2, 64); STEP(Y3, 96)
#define STEP8 STEP4; STEP(Y4, 128); STEP(Y5, 160); STEP(Y6, 192); STEP(Y7, 224)

#define STORE1 VMOVUPD Y0, 0(DI)
#define STORE2 STORE1; VMOVUPD Y1, 32(DI)
#define STORE4 STORE2; VMOVUPD Y2, 64(DI); VMOVUPD Y3, 96(DI)
#define STORE8 STORE4; VMOVUPD Y4, 128(DI); VMOVUPD Y5, 160(DI); VMOVUPD Y6, 192(DI); VMOVUPD Y7, 224(DI)

// One output in the low lane of X0, for the last n mod 4.
#define LOADS VMOVSD (DI), X0
#define STEPS1 \
	VMULSD (R11), X12, X8; \
	VADDSD X8, X0, X0
#define STORES VMOVSD X0, (DI)

// func rowAccAVX2(out *float64, n int, c *float64, nrows int, rows *float64, stride int, skipZero bool)
TEXT ·rowAccAVX2(SB), NOSPLIT, $0-49
	MOVQ    out+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    rows+32(FP), R9
	MOVQ    stride+40(FP), R13
	SHLQ    $3, R13
	MOVBQZX skipZero+48(FP), BX
	VXORPD  X14, X14, X14
	SWEEP(32, acc32, acc32r, acc32t, acc32s, acc16, LOAD8, STEP8, STORE8)
	SWEEP(16, acc16, acc16r, acc16t, acc16s, acc8, LOAD4, STEP4, STORE4)
	SWEEP(8, acc8, acc8r, acc8t, acc8s, acc4, LOAD2, STEP2, STORE2)
	SWEEP(4, acc4, acc4r, acc4t, acc4s, acc1, LOAD1, STEP1, STORE1)
	SWEEP(1, acc1, acc1r, acc1t, acc1s, done, LOADS, STEPS1, STORES)
done:
	VZEROUPPER
	RET

// rowAccAVX512 makes the same walk with eight outputs a ZMM register, in
// groups of 64, 32, 16 and 8, and the last n mod 8 in one masked group
// (K1): lanes past out are neither loaded, multiplied from rows nor stored,
// and every lane inside it performs the Go loop's operations as above. The
// masked group runs SWEEPW once, with CX set to 1. The registers are
// rowAccAVX2's, Z for Y, plus AX for the mask. ConvE's FC layer skips about
// half its rows at random (the ReLU's zeros); a branchless masked add in
// place of the skip's branch measured slower there (BenchmarkBuildQueries,
// ConvE at dim 64: 3.2 against 2.5 µs a query; at dim 256: 175 against 80),
// since it reads the skipped rows too.

#define ZSTEP(acc, off) \
	VMULPD off(R11), Z12, Z8; \
	VADDPD Z8, acc, acc

#define ZLOAD1 VMOVUPD 0(DI), Z0
#define ZLOAD2 ZLOAD1; VMOVUPD 64(DI), Z1
#define ZLOAD4 ZLOAD2; VMOVUPD 128(DI), Z2; VMOVUPD 192(DI), Z3
#define ZLOAD8 ZLOAD4; VMOVUPD 256(DI), Z4; VMOVUPD 320(DI), Z5; VMOVUPD 384(DI), Z6; VMOVUPD 448(DI), Z7

#define ZSTEP1 ZSTEP(Z0, 0)
#define ZSTEP2 ZSTEP1; ZSTEP(Z1, 64)
#define ZSTEP4 ZSTEP2; ZSTEP(Z2, 128); ZSTEP(Z3, 192)
#define ZSTEP8 ZSTEP4; ZSTEP(Z4, 256); ZSTEP(Z5, 320); ZSTEP(Z6, 384); ZSTEP(Z7, 448)

#define ZSTORE1 VMOVUPD Z0, 0(DI)
#define ZSTORE2 ZSTORE1; VMOVUPD Z1, 64(DI)
#define ZSTORE4 ZSTORE2; VMOVUPD Z2, 128(DI); VMOVUPD Z3, 192(DI)
#define ZSTORE8 ZSTORE4; VMOVUPD Z4, 256(DI); VMOVUPD Z5, 320(DI); VMOVUPD Z6, 384(DI); VMOVUPD Z7, 448(DI)

// The last n mod 8 outputs: K1 holds their lanes.
#define ZLOADM VMOVUPD.Z (DI), K1, Z0
#define ZSTEPM \
	VMULPD (R11), Z12, K1, Z8; \
	VADDPD Z8, Z0, Z0
#define ZSTOREM VMOVUPD Z0, K1, (DI)

// func rowAccAVX512(out *float64, n int, c *float64, nrows int, rows *float64, stride int, skipZero bool)
TEXT ·rowAccAVX512(SB), NOSPLIT, $0-49
	MOVQ    out+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    rows+32(FP), R9
	MOVQ    stride+40(FP), R13
	SHLQ    $3, R13
	MOVBQZX skipZero+48(FP), BX
	VXORPD  X14, X14, X14
	SWEEPW(64, zacc64, zacc64r, zacc64t, zacc64s, zacc32, ZLOAD8, ZSTEP8, ZSTORE8, Z12)
	SWEEPW(32, zacc32, zacc32r, zacc32t, zacc32s, zacc16, ZLOAD4, ZSTEP4, ZSTORE4, Z12)
	SWEEPW(16, zacc16, zacc16r, zacc16t, zacc16s, zacc8, ZLOAD2, ZSTEP2, ZSTORE2, Z12)
	SWEEPW(8, zacc8, zacc8r, zacc8t, zacc8s, zaccm, ZLOAD1, ZSTEP1, ZSTORE1, Z12)
zaccm:
	TESTQ   CX, CX
	JZ      zdone
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1
	MOVQ    $1, CX
	SWEEPW(1, zaccmg, zaccmr, zaccmt, zaccms, zdone, ZLOADM, ZSTEPM, ZSTOREM, Z12)
zdone:
	VZEROUPPER
	RET
