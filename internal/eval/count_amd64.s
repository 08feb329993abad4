//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 twin of outsideGo (count.go), the compare under every strip of
// the rank merge, eight scores a step in two YMM registers: how many scores
// lie strictly above hi and how many strictly below lo.
//
// VCMPPD with GT_OQ (0x1e) and LT_OQ (0x11) is Go's > and < on float64:
// ordered, so a NaN score is neither, and +0 equals -0. A compare sets every
// bit of a lane that holds (-1 as an int64), so subtracting the mask adds
// one to that lane of a counter. The two counters hold four lanes each and
// are summed across lanes once, after the last step.
//
// Registers:
//	SI   cursor in scores
//	CX   scores left, a multiple of eight
//	Y14  broadcast hi
//	Y15  broadcast lo
//	Y0   count above, four lanes
//	Y1   count below, four lanes
//	Y2-Y5  scores, then masks

// func outsideAVX2(scores *float64, n int, lo, hi float64) (above, below int)
TEXT ·outsideAVX2(SB), NOSPLIT, $0-48
	MOVQ         scores+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD hi+24(FP), Y14
	VBROADCASTSD lo+16(FP), Y15
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1
	TESTQ        CX, CX
	JZ           sum

step:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VCMPPD  $0x11, Y15, Y2, Y4
	VCMPPD  $0x11, Y15, Y3, Y5
	VCMPPD  $0x1e, Y14, Y2, Y2
	VCMPPD  $0x1e, Y14, Y3, Y3
	VPSUBQ  Y4, Y1, Y1
	VPSUBQ  Y5, Y1, Y1
	VPSUBQ  Y2, Y0, Y0
	VPSUBQ  Y3, Y0, Y0
	ADDQ    $64, SI
	SUBQ    $8, CX
	JNZ     step

sum:
	VEXTRACTI128 $1, Y0, X2
	VPADDQ       X2, X0, X0
	VPSHUFD      $0x4e, X0, X2
	VPADDQ       X2, X0, X0
	VMOVQ        X0, above+32(FP)
	VEXTRACTI128 $1, Y1, X3
	VPADDQ       X3, X1, X1
	VPSHUFD      $0x4e, X1, X3
	VPADDQ       X3, X1, X1
	VMOVQ        X1, below+40(FP)
	VZEROUPPER
	RET
