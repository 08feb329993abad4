//go:build amd64 && !purego

#include "textflag.h"

// The pool draw's AVX2 lane: refillAVX2 advances the stream, positiveAVX2
// counts the weights that draw, uniformsAVX2 turns the stream's outputs
// into uniforms and keysAVX2 turns uniforms into keys, four lanes a step,
// each with the results of the Go code it stands in for (draw.go,
// stream.go).

// positiveAVX2 counts the w > 0 among n weights, as 0 < w: VCMPPD with
// LT_OQ (0x11) is Go's <, ordered, so NaN is not positive, and neither is
// -0. A compare sets every bit of a lane that holds (-1 as an int64), so
// subtracting the mask adds one to that lane of the count, summed across
// lanes at the end.
//
//	SI  cursor in ws
//	CX  weights left, a multiple of four
//	Y0  the count, four lanes
//	Y1  zero

// func positiveAVX2(ws *float64, n int) (count int)
TEXT ·positiveAVX2(SB), NOSPLIT, $0-24
	MOVQ ws+0(FP), SI
	MOVQ n+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	TESTQ CX, CX
	JZ    sum

step:
	VCMPPD $0x11, (SI), Y1, Y2
	VPSUBQ Y2, Y0, Y0
	ADDQ   $32, SI
	SUBQ   $4, CX
	JNZ    step

sum:
	VEXTRACTI128 $1, Y0, X2
	VPADDQ       X2, X0, X0
	VPSHUFD      $0x4e, X0, X2
	VPADDQ       X2, X0, X0
	VMOVQ        X0, count+16(FP)
	VZEROUPPER
	RET

// uniformsAVX2 is toUniformsGo's u = float64(int64(v)) · 2⁻⁶³, v = x mod 2⁶³,
// for groups in which every v is kept (0 < v ≤ 2⁶³ − 513); it stops before
// the first group that is not and returns how many it converted. AVX2 has no
// conversion from 64-bit lanes, so v is split at bit 32: hi = v >> 32 is ORed
// under the exponent of 2⁸⁴ (the double 2⁸⁴ + hi·2³²) and lo = v mod 2³² under
// that of 2⁵² (2⁵² + lo); (2⁸⁴ + hi·2³²) − (2⁸⁴ + 2⁵²) = hi·2³² − 2⁵² is exact,
// and adding 2⁵² + lo rounds v once, to nearest even, as CVTSQ2SD does. The
// scaling by 2⁻⁶³ is exact.
//
// Registers:
//	DI  cursor in dst
//	SI  cursor in src
//	CX  outputs to convert, a multiple of four
//	AX  outputs converted
//	Y0-Y2  work
//	Y8     zero
//	Y9-Y15 constants

DATA uniK<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF   // the low 63 bits
DATA uniK<>+8(SB)/8, $0x7FFFFFFFFFFFFDFF   // 2⁶³ − 513, the largest v kept
DATA uniK<>+16(SB)/8, $0x00000000FFFFFFFF  // the low 32 bits
DATA uniK<>+24(SB)/8, $0x4530000000000000  // 2⁸⁴
DATA uniK<>+32(SB)/8, $0x4530000000100000  // 2⁸⁴ + 2⁵²
DATA uniK<>+40(SB)/8, $0x4330000000000000  // 2⁵²
DATA uniK<>+48(SB)/8, $0x3C00000000000000  // 2⁻⁶³
GLOBL uniK<>(SB), RODATA|NOPTR, $56

// func uniformsAVX2(dst *float64, src *uint64, n int) (done int)
TEXT ·uniformsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   out
	VPBROADCASTQ uniK<>+0(SB), Y15
	VPBROADCASTQ uniK<>+8(SB), Y14
	VPBROADCASTQ uniK<>+16(SB), Y13
	VPBROADCASTQ uniK<>+24(SB), Y12
	VPBROADCASTQ uniK<>+32(SB), Y11
	VPBROADCASTQ uniK<>+40(SB), Y10
	VPBROADCASTQ uniK<>+48(SB), Y9
	VPXOR Y8, Y8, Y8

convert:
	VMOVDQU  (SI), Y0
	VPAND    Y15, Y0, Y0        // v
	VPCMPEQQ Y8, Y0, Y1         // v = 0
	VPCMPGTQ Y14, Y0, Y2        // v > 2⁶³ − 513
	VPOR     Y1, Y2, Y1
	VPTEST   Y1, Y1
	JNZ      stop               // a v to draw again: the Go lane takes over
	VPSRLQ   $32, Y0, Y1        // hi
	VPOR     Y12, Y1, Y1        // 2⁸⁴ + hi·2³²
	VSUBPD   Y11, Y1, Y1        // hi·2³² − 2⁵²
	VPAND    Y13, Y0, Y2        // lo
	VPOR     Y10, Y2, Y2        // 2⁵² + lo
	VADDPD   Y2, Y1, Y1         // v, rounded once
	VMULPD   Y9, Y1, Y1         // u = v · 2⁻⁶³
	VMOVUPD  Y1, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	ADDQ     $4, AX
	CMPQ     AX, CX
	JLT      convert

stop:
	VZEROUPPER

out:
	MOVQ AX, done+24(FP)
	RET

// keysAVX2 is logKeysGo four keys a step: keys[i] = log(keys[i]) / ws[i].
// The log is math's archLog (log_amd64.s), the one math.Log runs on amd64,
// operation for operation and in the same order, on four lanes: the same
// IEEE adds, multiplies and divides, none of them fused, give the same bits.
// archLog's special cases (0, negative, ±Inf, NaN) are left out: a key's u
// is finite and positive, which is the case archLog computes in full.
//
//	f1 = the mantissa of u as a double in [0.5, 1)   (AND, OR: Frexp's bits)
//	k  = the exponent field of u − 1022 as a double   (2⁵² trick, see below)
//	if f1 ≤ √2/2 { k −= 1; f1 *= 2 }                  (archLog's CMPSD is
//	                                                   cmpnlt(√2/2, f1): ≤)
//	f  = f1 − 1;  s = f / (2 + f);  s2 = s·s;  s4 = s2·s2
//	t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
//	t2 = s4·(L2 + s4·(L4 + s4·L6))
//	R  = t1 + t2;  hfsq = 0.5·f·f
//	log u = k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f)
//
// archLog converts the exponent with CVTSL2SD; AVX2 has no conversion from
// 64-bit lanes, so the 11-bit field is ORed under the exponent of 2⁵², which
// makes the double 2⁵² + e, and 2⁵² + 1022 is subtracted: e − 1022 exactly,
// and +0 where CVTSL2SD gives +0.
//
// Registers:
//	DI  cursor in keys (u in, key out)
//	SI  cursor in ws
//	CX  keys left, a multiple of four
//	Y0-Y6  work
//	Y7-Y15 the constants used more than once; the polynomial's
//	       coefficients are memory operands

#define SPLAT(off, v) \
	DATA logK<>+(off)(SB)/8, $v; \
	DATA logK<>+(off+8)(SB)/8, $v; \
	DATA logK<>+(off+16)(SB)/8, $v; \
	DATA logK<>+(off+24)(SB)/8, $v

SPLAT(0, 0x000FFFFFFFFFFFFF)   // mantissa mask
SPLAT(32, 0x3FE0000000000000)  // 0.5
SPLAT(64, 0x4330000000000000)  // 2⁵²
SPLAT(96, 0x43300000000003FE)  // 2⁵² + 1022
SPLAT(128, 0x3FE6A09E667F3BCD) // √2/2
SPLAT(160, 0x3FF0000000000000) // 1
SPLAT(192, 0x4000000000000000) // 2
SPLAT(224, 0x3FE5555555555593) // L1
SPLAT(256, 0x3FD999999997FA04) // L2
SPLAT(288, 0x3FD2492494229359) // L3
SPLAT(320, 0x3FCC71C51D8E78AF) // L4
SPLAT(352, 0x3FC7466496CB03DE) // L5
SPLAT(384, 0x3FC39A09D078C69F) // L6
SPLAT(416, 0x3FC2F112DF3E5244) // L7
SPLAT(448, 0x3FE62E42FEE00000) // Ln2Hi
SPLAT(480, 0x3DEA39EF35793C76) // Ln2Lo
GLOBL logK<>(SB), RODATA|NOPTR, $512

// func keysAVX2(keys, ws *float64, n int)
TEXT ·keysAVX2(SB), NOSPLIT, $0-24
	MOVQ keys+0(FP), DI
	MOVQ ws+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JZ   done
	VMOVUPD logK<>+0(SB), Y15
	VMOVUPD logK<>+32(SB), Y14
	VMOVUPD logK<>+64(SB), Y13
	VMOVUPD logK<>+96(SB), Y12
	VMOVUPD logK<>+128(SB), Y11
	VMOVUPD logK<>+160(SB), Y10
	VMOVUPD logK<>+192(SB), Y9
	VMOVUPD logK<>+448(SB), Y8
	VMOVUPD logK<>+480(SB), Y7

step:
	VMOVUPD (DI), Y0
	VANDPD  Y15, Y0, Y2         // mantissa bits
	VORPD   Y14, Y2, Y2         // f1
	VPSRLQ  $52, Y0, Y1         // exponent field
	VPOR    Y13, Y1, Y1         // 2⁵² + e
	VSUBPD  Y12, Y1, Y1         // k = e − 1022
	VCMPPD  $2, Y11, Y2, Y3     // f1 ≤ √2/2 (LE_OS)
	VANDPD  Y10, Y3, Y3         // 1 or 0
	VSUBPD  Y3, Y1, Y1          // k −= 1 or 0
	VADDPD  Y10, Y3, Y3         // 2 or 1
	VMULPD  Y3, Y2, Y2          // f1 *= 2 or 1
	VSUBPD  Y10, Y2, Y2         // f = f1 − 1
	VADDPD  Y9, Y2, Y0          // 2 + f
	VDIVPD  Y0, Y2, Y3          // s = f / (2 + f)
	VMULPD  Y3, Y3, Y4          // s2
	VMULPD  Y4, Y4, Y5          // s4
	VMULPD  logK<>+416(SB), Y5, Y6 // s4·L7
	VADDPD  logK<>+352(SB), Y6, Y6 // + L5
	VMULPD  Y5, Y6, Y6
	VADDPD  logK<>+288(SB), Y6, Y6 // + L3
	VMULPD  Y5, Y6, Y6
	VADDPD  logK<>+224(SB), Y6, Y6 // + L1
	VMULPD  Y6, Y4, Y4          // t1
	VMULPD  logK<>+384(SB), Y5, Y6 // s4·L6
	VADDPD  logK<>+320(SB), Y6, Y6 // + L4
	VMULPD  Y5, Y6, Y6
	VADDPD  logK<>+256(SB), Y6, Y6 // + L2
	VMULPD  Y6, Y5, Y5          // t2
	VADDPD  Y5, Y4, Y4          // R = t1 + t2
	VMULPD  Y14, Y2, Y0         // 0.5·f
	VMULPD  Y2, Y0, Y0          // hfsq = 0.5·f·f
	VADDPD  Y0, Y4, Y4          // R + hfsq
	VMULPD  Y4, Y3, Y3          // s·(hfsq + R)
	VMULPD  Y7, Y1, Y4          // k·Ln2Lo
	VADDPD  Y4, Y3, Y3          // s·(hfsq + R) + k·Ln2Lo
	VSUBPD  Y3, Y0, Y0          // hfsq − (…)
	VSUBPD  Y2, Y0, Y0          // (hfsq − (…)) − f
	VMULPD  Y8, Y1, Y1          // k·Ln2Hi
	VSUBPD  Y0, Y1, Y1          // log u
	VDIVPD  (SI), Y1, Y1        // log u / w
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     step
	VZEROUPPER

done:
	RET

// refillAVX2 is refillGo: the stream's next 607 outputs in place, four
// slots a step. Slots 0–271 add slots 334–605, slot 272 adds 606; slots
// 273–604 then add slots 0–331, which the first loop has advanced or this
// one did 273 slots earlier, and 605–606 add 332–333.
//
//	DI  the ring
//	CX  slot

// func refillAVX2(vec *[607]uint64)
TEXT ·refillAVX2(SB), NOSPLIT, $0-8
	MOVQ vec+0(FP), DI
	XORQ CX, CX

low:
	VMOVDQU (DI)(CX*8), Y0
	VPADDQ  2672(DI)(CX*8), Y0, Y0
	VMOVDQU Y0, (DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, $272
	JLT     low
	MOVQ    4848(DI), AX
	ADDQ    AX, 2176(DI)
	XORQ    CX, CX

high:
	VMOVDQU 2184(DI)(CX*8), Y0
	VPADDQ  (DI)(CX*8), Y0, Y0
	VMOVDQU Y0, 2184(DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, $332
	JLT     high
	MOVQ    2656(DI), AX
	ADDQ    AX, 4840(DI)
	MOVQ    2664(DI), AX
	ADDQ    AX, 4848(DI)
	VZEROUPPER
	RET
