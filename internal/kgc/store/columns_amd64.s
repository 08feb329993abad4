//go:build amd64 && !purego

#include "textflag.h"

// The two transposes below share their loads and shuffles; the converting
// one also keeps the running max of |value| and stores each finished column
// of four values rounded to float32.

// SETUPT loads the arguments and clears the running max; BX = dim % 4,
// CX = dim / 4, R13 the column stride in bytes (scale: 8 or 4).
#define SETUPT(scale) \
	MOVQ     r0+0(FP), R8; \
	MOVQ     r1+8(FP), R9; \
	MOVQ     r2+16(FP), R10; \
	MOVQ     r3+24(FP), R11; \
	MOVQ     dim+32(FP), CX; \
	MOVQ     dst+40(FP), DI; \
	MOVQ     stride+48(FP), R13; \
	IMULQ    $scale, R13; \
	VXORPD   Y8, Y8, Y8; \
	VXORPD   Y10, Y10, Y10; \
	VXORPD   Y11, Y11, Y11; \
	VXORPD   Y12, Y12, Y12; \
	VPCMPEQD Y9, Y9, Y9; \
	VPSRLQ   $1, Y9, Y9; \
	MOVQ     CX, BX; \
	ANDQ     $3, BX; \
	SHRQ     $2, CX

// LOAD4X4 reads four dims of the four rows and leaves them transposed:
// Y4..Y7 hold dims 0..3 of rows a, b, c, d.
#define LOAD4X4 \
	VMOVUPD     (R8), X0; \
	VINSERTF128 $1, (R10), Y0, Y0; \
	VMOVUPD     (R9), X1; \
	VINSERTF128 $1, (R11), Y1, Y1; \
	VMOVUPD     16(R8), X2; \
	VINSERTF128 $1, 16(R10), Y2, Y2; \
	VMOVUPD     16(R9), X3; \
	VINSERTF128 $1, 16(R11), Y3, Y3; \
	VUNPCKLPD   Y1, Y0, Y4; \
	VUNPCKHPD   Y1, Y0, Y5; \
	VUNPCKLPD   Y3, Y2, Y6; \
	VUNPCKHPD   Y3, Y2, Y7

// MAX4X4 folds |Y4..Y7| into the running maxima Y8, Y10, Y11 and Y12 (Y9
// holds every bit but the sign) and moves the row pointers past four dims. Where either operand is a NaN, VMAXPD writes its second source, so
// each fold names the running max there: a NaN value is passed over and the
// max kept. (A tree that folded two values first would let a NaN replace
// the number beside it, and then be replaced itself: the max of the numbers
// would be lost.) Four running maxima keep the chain one fold a block.
#define MAX4X4 \
	VANDPD Y9, Y4, Y4; \
	VANDPD Y9, Y5, Y5; \
	VANDPD Y9, Y6, Y6; \
	VANDPD Y9, Y7, Y7; \
	VMAXPD Y8, Y4, Y8; \
	VMAXPD Y10, Y5, Y10; \
	VMAXPD Y11, Y6, Y11; \
	VMAXPD Y12, Y7, Y12; \
	ADVANCE4

// ADVANCE4 moves the row pointers past four dims.
#define ADVANCE4 \
	ADDQ $32, R8; \
	ADDQ $32, R9; \
	ADDQ $32, R10; \
	ADDQ $32, R11

// LOADCOL reads one dim of the four rows into Y0 and advances past it.
#define LOADCOL \
	VMOVSD      (R8), X0; \
	VMOVHPD     (R9), X0, X0; \
	VMOVSD      (R10), X1; \
	VMOVHPD     (R11), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	ADDQ        $8, R8; \
	ADDQ        $8, R9; \
	ADDQ        $8, R10; \
	ADDQ        $8, R11

// RESULT reduces the four running maxima, none of them NaN, to the one max
// and returns it.
#define RESULT \
	VMAXPD       Y10, Y8, Y8; \
	VMAXPD       Y12, Y11, Y11; \
	VMAXPD       Y11, Y8, Y8; \
	VEXTRACTF128 $1, Y8, X0; \
	VMAXPD       X0, X8, X8; \
	VPERMILPD    $1, X8, X0; \
	VMAXPD       X0, X8, X8; \
	VMOVSD       X8, maxAbs+56(FP); \
	VZEROUPPER; \
	RET

// func transpose4AVX(r0, r1, r2, r3 *float64, dim int, dst *float64, stride int)
//
// Writes dst[k*stride+l] = r_l[k] for k < dim, l < 4: four table rows become
// four adjacent columns of a candidate-minor tile. Four dims at a time are a
// 4×4 transpose (two 128-bit halves per row pair, then unpack low/high); the
// dim%4 remainder is assembled one column at a time. The values are moved,
// never rounded: they are the table's bits.
TEXT ·transpose4AVX(SB), NOSPLIT, $0-56
	SETUPT(8)
	JZ tail

block:
	LOAD4X4
	LEAQ    (DI)(R13*2), DX
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R13*1)
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, (DX)(R13*1)
	ADVANCE4
	LEAQ    (DI)(R13*4), DI
	DECQ    CX
	JNZ     block

tail:
	TESTQ BX, BX
	JZ    done

column:
	LOADCOL
	VMOVUPD Y0, (DI)
	ADDQ    R13, DI
	DECQ    BX
	JNZ     column

done:
	VZEROUPPER
	RET

// func transpose4Cvt(r0, r1, r2, r3 *float64, dim int, dst *float32, stride int) (maxAbs float64)
//
// transpose4AVX for the rank path's float32 tile: each transposed column of
// four float64 values is rounded to four float32 values (VCVTPD2PS, under
// the MXCSR's round to nearest even, as Go's float32(v) on amd64: a value
// past float32's range becomes ±Inf, a NaN stays a NaN, a value below its
// subnormals ±0) and stored as one 16-byte column.
//
// It also returns the largest |value| of the float64 values, before they
// are rounded, for the rank path's error bound: every transposed vector has
// its signs cleared (VANDPD, Y9 holds every bit but the sign) and is folded
// into a running max with VMAXPD, which passes over a NaN (MAX4X4), so the
// result is the largest |value| that is a number (an infinity included),
// and that is all it promises.
TEXT ·transpose4Cvt(SB), NOSPLIT, $0-64
	SETUPT(4)
	JZ cvttail

cvtblock:
	LOAD4X4
	LEAQ       (DI)(R13*2), DX
	VCVTPD2PSY Y4, X0
	VCVTPD2PSY Y5, X1
	VCVTPD2PSY Y6, X2
	VCVTPD2PSY Y7, X3
	VMOVUPS    X0, (DI)
	VMOVUPS    X1, (DI)(R13*1)
	VMOVUPS    X2, (DX)
	VMOVUPS    X3, (DX)(R13*1)
	MAX4X4
	LEAQ       (DI)(R13*4), DI
	DECQ       CX
	JNZ        cvtblock

cvttail:
	TESTQ BX, BX
	JZ    cvtdone

cvtcolumn:
	LOADCOL
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DI)
	VANDPD     Y9, Y0, Y0
	VMAXPD     Y8, Y0, Y8
	ADDQ       R13, DI
	DECQ       BX
	JNZ        cvtcolumn

cvtdone:
	RESULT
