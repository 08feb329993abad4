//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The AVX2 twin of convGo (conve.go), ConvE's conv layer: the 3×3
// convolution of an ih×4 image with four channels' kernels, each channel's
// batch norm and a ReLU.
//
// The four lanes of a YMM register hold the four *channels* of one output
// pixel, so a lane performs, in order, exactly the Go loop's operations for
// its channel: the sum starts from the channel's bias and adds one rounded
// product per tap in (ky, kx) order (VMULPD then VADDPD — never a fused
// multiply-add), taps past the image's border skipped, not added as zero.
// The batch norm is VSUBPD then VMULPD, (s − mean)·inv, and the ReLU keeps
// a lane only where norm > 0 holds (VCMPPD GT_OQ: false for ±0 and NaN,
// whose lanes VANDPD clears to +0), as the Go loop's norm > 0 test does.
//
// One sweep per image row y computes the row's four pixels at once: each
// image value the row reads is broadcast once and multiplied into every
// pixel whose 3×3 window holds it, so each pixel meets its taps in
// ascending kx within a kernel row and kernel rows in ascending ky. The top
// and bottom rows are their own sweeps without the kernel row that falls
// outside the image. A 4×4 transpose turns the four pixels' channel vectors
// into the four channels' runs of the row, which is how feat (and convPre)
// lay them out: channel c's row y at (c·ih + y)·4.
//
// Registers:
//	AX   w: taps[t] at 32t, then bias, mean and inv (go_asm.h offsets)
//	SI   img
//	DX   convPre, or 0
//	DI   feat
//	BX   byte offset of row y: 32y
//	CX   middle rows left
//	R8   channel stride in bytes (32·ih), R9 three of them
//	R10  the row's first channel run in feat or convPre
//	Y0-Y3   the row's four pixels, lanes across channels
//	Y4      broadcast image value
//	Y5      product
//	Y8-Y12  transpose
//	Y13     inv
//	Y14     mean
//	Y15     zero

// pixel += taps[t] * value
#define MAC(pixel, t) \
	VMULPD ((t)*32)(AX), Y4, Y5; \
	VADDPD Y5, pixel, pixel

// The kernel row ky = K-1 over image row y+K-1, at img off(SI)(BX*1): value
// xx is tap kx = +1 of pixel xx-1, kx = 0 of pixel xx and kx = -1 of pixel
// xx+1, the pixels that exist.
#define KROW(off, K) \
	VBROADCASTSD (off+0)(SI)(BX*1), Y4; \
	MAC(Y0, 3*K+1); \
	MAC(Y1, 3*K+0); \
	VBROADCASTSD (off+8)(SI)(BX*1), Y4; \
	MAC(Y0, 3*K+2); \
	MAC(Y1, 3*K+1); \
	MAC(Y2, 3*K+0); \
	VBROADCASTSD (off+16)(SI)(BX*1), Y4; \
	MAC(Y1, 3*K+2); \
	MAC(Y2, 3*K+1); \
	MAC(Y3, 3*K+0); \
	VBROADCASTSD (off+24)(SI)(BX*1), Y4; \
	MAC(Y2, 3*K+2); \
	MAC(Y3, 3*K+1)

#define BIAS \
	VMOVUPD convWeights_bias(AX), Y0; \
	VMOVAPD Y0, Y1; \
	VMOVAPD Y0, Y2; \
	VMOVAPD Y0, Y3

// Stores Y0-Y3 transposed at R10: channel c's four pixels at R10 + c·R8.
#define TRANSPOSE_STORE \
	VUNPCKLPD  Y1, Y0, Y8; \
	VUNPCKHPD  Y1, Y0, Y9; \
	VUNPCKLPD  Y3, Y2, Y10; \
	VUNPCKHPD  Y3, Y2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VMOVUPD    Y12, (R10); \
	VPERM2F128 $0x20, Y11, Y9, Y12; \
	VMOVUPD    Y12, (R10)(R8*1); \
	VPERM2F128 $0x31, Y10, Y8, Y12; \
	VMOVUPD    Y12, (R10)(R8*2); \
	VPERM2F128 $0x31, Y11, Y9, Y12; \
	VMOVUPD    Y12, (R10)(R9*1)

// norm = (s - mean) * inv; feat = norm where norm > 0, else +0.
#define NORM(p) \
	VSUBPD  Y14, p, p; \
	VMULPD  Y13, p, p; \
	VCMPPD  $0x1e, Y15, p, Y5; \
	VANDPD  Y5, p, p

// Writes the row's pre-BN sums to convPre when there is one, then its
// features to feat, and moves to the next row.
#define FINISH(nopre) \
	TESTQ DX, DX; \
	JZ    nopre; \
	LEAQ  (DX)(BX*1), R10; \
	TRANSPOSE_STORE; \
nopre: \
	NORM(Y0); \
	NORM(Y1); \
	NORM(Y2); \
	NORM(Y3); \
	LEAQ  (DI)(BX*1), R10; \
	TRANSPOSE_STORE; \
	ADDQ  $32, BX

// func convAVX2(w *convWeights, img *float64, ih int, convPre *float64, feat *float64)
TEXT ·convAVX2(SB), NOSPLIT, $0-40
	MOVQ    w+0(FP), AX
	MOVQ    img+8(FP), SI
	MOVQ    ih+16(FP), CX
	MOVQ    convPre+24(FP), DX
	MOVQ    feat+32(FP), DI
	MOVQ    CX, R8
	SHLQ    $5, R8
	LEAQ    (R8)(R8*2), R9
	VMOVUPD convWeights_mean(AX), Y14
	VMOVUPD convWeights_inv(AX), Y13
	VXORPD  Y15, Y15, Y15
	XORQ    BX, BX
	SUBQ    $2, CX

	// Row 0: kernel rows ky = 0, +1.
	BIAS
	KROW(0, 1)
	KROW(32, 2)
	FINISH(toppre)
	TESTQ   CX, CX
	JZ      bottom

middle:
	BIAS
	KROW(-32, 0)
	KROW(0, 1)
	KROW(32, 2)
	FINISH(midpre)
	DECQ    CX
	JNZ     middle

bottom:
	// Row ih-1: kernel rows ky = -1, 0.
	BIAS
	KROW(-32, 0)
	KROW(0, 1)
	FINISH(botpre)
	VZEROUPPER
	RET
