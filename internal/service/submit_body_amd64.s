//go:build amd64 && !purego

#include "textflag.h"

// Base64 decoding of whole 32-character blocks with AVX2, after Muła and
// Lemire, "Faster Base64 Encoding and Decoding Using AVX2 Instructions"
// (2018), for the standard alphabet only: a block holding anything else —
// padding, a quote, a backslash, a line break, a non-ASCII byte — ends the
// run, and the Go code decodes it and everything after it.

// The validity check. A byte is in the alphabet exactly when the low-nibble
// class and the high-nibble class share no bit.
DATA b64lutlo<>+0x00(SB)/8, $0x1111111111111115
DATA b64lutlo<>+0x08(SB)/8, $0x1a1b1b1b1a131111
DATA b64lutlo<>+0x10(SB)/8, $0x1111111111111115
DATA b64lutlo<>+0x18(SB)/8, $0x1a1b1b1b1a131111
GLOBL b64lutlo<>(SB), RODATA|NOPTR, $32

DATA b64luthi<>+0x00(SB)/8, $0x0804080402011010
DATA b64luthi<>+0x08(SB)/8, $0x1010101010101010
DATA b64luthi<>+0x10(SB)/8, $0x0804080402011010
DATA b64luthi<>+0x18(SB)/8, $0x1010101010101010
GLOBL b64luthi<>(SB), RODATA|NOPTR, $32

// What to add to a valid character, by high nibble, to get its 6-bit value;
// entry 1 is '/', which alone shares high nibble 2 with '+'.
DATA b64roll<>+0x00(SB)/8, $0xb9b9bfbf04131000
DATA b64roll<>+0x08(SB)/8, $0x0000000000000000
DATA b64roll<>+0x10(SB)/8, $0xb9b9bfbf04131000
DATA b64roll<>+0x18(SB)/8, $0x0000000000000000
GLOBL b64roll<>(SB), RODATA|NOPTR, $32

// '/', and a nibble mask: VPSHUFB reads bits 0-3 and 7 of an index, so the
// extra bit 5 of 0x2f never selects anything.
DATA b64slash<>+0x00(SB)/8, $0x2f2f2f2f2f2f2f2f
DATA b64slash<>+0x08(SB)/8, $0x2f2f2f2f2f2f2f2f
DATA b64slash<>+0x10(SB)/8, $0x2f2f2f2f2f2f2f2f
DATA b64slash<>+0x18(SB)/8, $0x2f2f2f2f2f2f2f2f
GLOBL b64slash<>(SB), RODATA|NOPTR, $32

// Four 6-bit values a, b, c, d to one 24-bit word: a<<6|b and c<<6|d as
// words, then (a<<6|b)<<12 | c<<6|d.
DATA b64merge1<>+0x00(SB)/8, $0x0140014001400140
DATA b64merge1<>+0x08(SB)/8, $0x0140014001400140
DATA b64merge1<>+0x10(SB)/8, $0x0140014001400140
DATA b64merge1<>+0x18(SB)/8, $0x0140014001400140
GLOBL b64merge1<>(SB), RODATA|NOPTR, $32

DATA b64merge2<>+0x00(SB)/8, $0x0001100000011000
DATA b64merge2<>+0x08(SB)/8, $0x0001100000011000
DATA b64merge2<>+0x10(SB)/8, $0x0001100000011000
DATA b64merge2<>+0x18(SB)/8, $0x0001100000011000
GLOBL b64merge2<>(SB), RODATA|NOPTR, $32

// The three bytes of each word, most significant first, packed into the low
// 12 bytes of each 128-bit lane; the last four bytes are zeroed.
DATA b64pack<>+0x00(SB)/8, $0x090a040506000102
DATA b64pack<>+0x08(SB)/8, $0x808080800c0d0e08
DATA b64pack<>+0x10(SB)/8, $0x090a040506000102
DATA b64pack<>+0x18(SB)/8, $0x808080800c0d0e08
GLOBL b64pack<>(SB), RODATA|NOPTR, $32

// The two lanes' 12 bytes side by side, then the zeroed words.
DATA b64compact<>+0x00(SB)/8, $0x0000000100000000
DATA b64compact<>+0x08(SB)/8, $0x0000000400000002
DATA b64compact<>+0x10(SB)/8, $0x0000000600000005
DATA b64compact<>+0x18(SB)/8, $0x0000000700000003
GLOBL b64compact<>(SB), RODATA|NOPTR, $32

// func decodeBase64AVX2(dst, src *byte, blocks int) (n int)
//
// Decodes up to blocks blocks of 32 characters at src into 24 bytes each at
// dst, stopping before the first block that is not all alphabet, and
// returns how many it decoded. Each block's 32-byte store writes 8 bytes
// past its 24, so dst must hold blocks*24+8 bytes.
//
//	SI  cursor in src     DI  cursor in dst
//	CX  blocks asked for  AX  blocks done
//	Y8-Y14  the tables above
TEXT ·decodeBase64AVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    blocks+16(FP), CX
	XORQ    AX, AX
	VMOVDQU b64lutlo<>(SB), Y8
	VMOVDQU b64luthi<>(SB), Y9
	VMOVDQU b64roll<>(SB), Y10
	VMOVDQU b64slash<>(SB), Y11
	VMOVDQU b64merge1<>(SB), Y12
	VMOVDQU b64merge2<>(SB), Y13
	VMOVDQU b64compact<>(SB), Y14

block:
	CMPQ       AX, CX
	JEQ        done
	VMOVDQU    (SI), Y0
	VPSRLD     $4, Y0, Y1
	VPAND      Y11, Y0, Y2      // low nibbles
	VPAND      Y11, Y1, Y1      // high nibbles
	VPSHUFB    Y2, Y8, Y2
	VPSHUFB    Y1, Y9, Y3
	VPTEST     Y2, Y3
	JNZ        done             // a byte outside the alphabet
	VPCMPEQB   Y11, Y0, Y2      // -1 where '/'
	VPADDB     Y2, Y1, Y1
	VPSHUFB    Y1, Y10, Y1
	VPADDB     Y1, Y0, Y0       // 6-bit values
	VPMADDUBSW Y12, Y0, Y0
	VPMADDWD   Y13, Y0, Y0
	VPSHUFB    b64pack<>(SB), Y0, Y0
	VPERMD     Y0, Y14, Y0
	VMOVDQU    Y0, (DI)
	ADDQ       $32, SI
	ADDQ       $24, DI
	INCQ       AX
	JMP        block

done:
	VZEROUPPER
	MOVQ AX, n+24(FP)
	RET
