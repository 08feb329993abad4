//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 twin of rowAccGo (scoring.go), the query builders' inner loop:
// out[k] += c[u]·rows[u*stride+k] for u = 0 .. nrows-1 in turn.
//
// The four lanes of a YMM register hold four *outputs* k, never four rows u.
// A lane therefore performs, in order, exactly the Go loop's operations for
// its output: one rounded multiply and one rounded add per row (VMULPD then
// VADDPD — never a fused multiply-add, which would round once), rows in
// ascending u. No sum runs across lanes, so every output has the bits the Go
// loop gives it. With skipZero set a row whose coefficient is +0 or -0 is
// passed over, as the Go loop's c == 0 does; a NaN coefficient is not
// (VUCOMISD sets ZF for equal and for unordered; PF set means unordered).
//
// The outputs are walked in groups of 32, 16, 8, 4 and 1 — eight, four, two
// and one YMM accumulators, then one scalar — and each group stays in
// registers across a whole sweep of the rows, loaded from out before it and
// stored after.
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
group: \
	CMPQ CX, $W; \
	JLT  next; \
	LOAD; \
	MOVQ c+16(FP), SI; \
	MOVQ nrows+24(FP), R8; \
	MOVQ R9, R11; \
row: \
	VBROADCASTSD (SI), Y12; \
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
