//go:build amd64 && !purego

#include "textflag.h"

// func transpose4AVX(r0, r1, r2, r3 *float64, dim int, dst *float64, stride int) (maxAbs float64)
//
// Writes dst[k*stride+l] = r_l[k] for k < dim, l < 4: four table rows become
// four adjacent columns of a candidate-minor tile. Four dims at a time are a
// 4×4 transpose (two 128-bit halves per row pair, then unpack low/high); the
// dim%4 remainder is assembled one column at a time. The values are moved,
// never rounded: they are the table's bits.
//
// It also returns the largest |value| it moved, for the rank path's error
// bound: every output vector has its signs cleared (VANDPD, Y9 holds every
// bit but the sign) and is folded into Y8 with VMAXPD. VMAXPD does not keep
// a NaN, so the result bounds every value that is a number (an infinity
// included), and that is all it promises.
TEXT ·transpose4AVX(SB), NOSPLIT, $0-64
	MOVQ      r0+0(FP), R8
	MOVQ      r1+8(FP), R9
	MOVQ      r2+16(FP), R10
	MOVQ      r3+24(FP), R11
	MOVQ      dim+32(FP), CX
	MOVQ      dst+40(FP), DI
	MOVQ      stride+48(FP), R13
	SHLQ      $3, R13       // column stride in bytes
	VXORPD    Y8, Y8, Y8    // running max of |value|
	VPCMPEQD  Y9, Y9, Y9
	VPSRLQ    $1, Y9, Y9    // every bit but the sign
	MOVQ      CX, BX
	ANDQ      $3, BX        // BX = dim % 4
	SHRQ      $2, CX        // CX = dim / 4
	JZ        tail

block:
	VMOVUPD     (R8), X0
	VINSERTF128 $1, (R10), Y0, Y0   // Y0 = a0 a1 | c0 c1
	VMOVUPD     (R9), X1
	VINSERTF128 $1, (R11), Y1, Y1   // Y1 = b0 b1 | d0 d1
	VMOVUPD     16(R8), X2
	VINSERTF128 $1, 16(R10), Y2, Y2 // Y2 = a2 a3 | c2 c3
	VMOVUPD     16(R9), X3
	VINSERTF128 $1, 16(R11), Y3, Y3 // Y3 = b2 b3 | d2 d3
	VUNPCKLPD   Y1, Y0, Y4          // a0 b0 c0 d0
	VUNPCKHPD   Y1, Y0, Y5          // a1 b1 c1 d1
	VUNPCKLPD   Y3, Y2, Y6          // a2 b2 c2 d2
	VUNPCKHPD   Y3, Y2, Y7          // a3 b3 c3 d3
	LEAQ        (DI)(R13*2), DX
	VMOVUPD     Y4, (DI)
	VMOVUPD     Y5, (DI)(R13*1)
	VMOVUPD     Y6, (DX)
	VMOVUPD     Y7, (DX)(R13*1)
	VANDPD      Y9, Y4, Y4
	VANDPD      Y9, Y5, Y5
	VANDPD      Y9, Y6, Y6
	VANDPD      Y9, Y7, Y7
	VMAXPD      Y5, Y4, Y4
	VMAXPD      Y7, Y6, Y6
	VMAXPD      Y6, Y4, Y4
	VMAXPD      Y4, Y8, Y8
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	LEAQ        (DI)(R13*4), DI
	DECQ        CX
	JNZ         block

tail:
	TESTQ BX, BX
	JZ    done

column:
	VMOVSD      (R8), X0
	VMOVHPD     (R9), X0, X0        // a b
	VMOVSD      (R10), X1
	VMOVHPD     (R11), X1, X1       // c d
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (DI)
	VANDPD      Y9, Y0, Y0
	VMAXPD      Y0, Y8, Y8
	ADDQ        $8, R8
	ADDQ        $8, R9
	ADDQ        $8, R10
	ADDQ        $8, R11
	ADDQ        R13, DI
	DECQ        BX
	JNZ         column

done:
	VEXTRACTF128 $1, Y8, X0
	VMAXPD       X0, X8, X8
	VPERMILPD    $1, X8, X0
	VMAXPD       X0, X8, X8
	VMOVSD       X8, maxAbs+56(FP)
	VZEROUPPER
	RET
