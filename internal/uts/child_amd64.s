//go:build amd64 && !purego

#include "textflag.h"

// SHA-1's initial state in the SHA extensions' lane order: ABCD holds h0 in
// its top lane, E holds h4 in its top lane with the rest zero.
DATA ivABCD<>+0(SB)/4, $0x10325476
DATA ivABCD<>+4(SB)/4, $0x98badcfe
DATA ivABCD<>+8(SB)/4, $0xefcdab89
DATA ivABCD<>+12(SB)/4, $0x67452301
GLOBL ivABCD<>(SB), RODATA|NOPTR, $16

DATA ivE<>+0(SB)/4, $0
DATA ivE<>+4(SB)/4, $0
DATA ivE<>+8(SB)/4, $0
DATA ivE<>+12(SB)/4, $0xc3d2e1f0
GLOBL ivE<>(SB), RODATA|NOPTR, $16

// Reverses the 16 bytes of a register: big-endian words in message order
// become the lanes SHA1RNDS4 reads, word 0 in the top lane (and back).
DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// Four rounds that also advance the message schedule. e is the E register
// the rounds read (E0 or E1, alternating) and n the other one, which saves
// ABCD for the next step's SHA1NEXTE. cur holds this step's four message
// words; SHA1MSG2 finishes prev with them, SHA1MSG1 starts m1next, and
// xorInto takes their XOR. The four roles rotate through X3..X6 one
// register per step.
#define ROUNDS4(f, e, n, cur, prev, m1next, xorInto) \
	SHA1NEXTE cur, e; \
	MOVO      X0, n; \
	SHA1MSG2  cur, prev; \
	SHA1RNDS4 $f, e, X0; \
	SHA1MSG1  cur, m1next; \
	PXOR      cur, xorInto

// func childBlockSHANI(out, in *[20]byte, i uint32)
//
// Register use: X0 ABCD, X1 E0, X2 E1, X3..X6 the message schedule
// MSG0..MSG3, X7 the byte-reversal mask, X8/X9 the initial state kept for
// the final add.
TEXT ·childBlockSHANI(SB), NOSPLIT, $0-20
	MOVQ in+8(FP), SI
	MOVQ out+0(FP), DI
	MOVL i+16(FP), BX

	MOVOU bswapMask<>(SB), X7
	MOVOU ivABCD<>(SB), X0
	MOVOU ivE<>(SB), X1
	MOVO  X0, X8
	MOVO  X1, X9

	// MSG0 = words 0-3: the first 16 bytes of the parent's state.
	MOVOU  (SI), X3
	PSHUFB X7, X3

	// MSG1 = word 4 (the state's last 4 bytes), i, the 0x80 pad byte, 0:
	// top lane first, so the low quadword is 0x80000000 << 32 and the high
	// one bswap(state[16:20]) << 32 | i.
	MOVL    16(SI), AX
	BSWAPL  AX
	SHLQ    $32, AX
	ORQ     BX, AX
	MOVQ    $0x8000000000000000, CX
	MOVQ    CX, X4
	PINSRQ  $1, AX, X4

	// MSG2 = words 8-11, all zero; MSG3 = words 12-15, the bit length
	// (24 bytes = 192 bits) in the bottom lane.
	PXOR X5, X5
	MOVL $192, CX
	MOVQ CX, X6

	// Rounds 0-3.
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-67: fourteen steps of four, the schedule rotating through
	// X3..X6.
	ROUNDS4(0, X2, X1, X6, X3, X5, X4) // 12-15
	ROUNDS4(0, X1, X2, X3, X4, X6, X5) // 16-19
	ROUNDS4(1, X2, X1, X4, X5, X3, X6) // 20-23
	ROUNDS4(1, X1, X2, X5, X6, X4, X3) // 24-27
	ROUNDS4(1, X2, X1, X6, X3, X5, X4) // 28-31
	ROUNDS4(1, X1, X2, X3, X4, X6, X5) // 32-35
	ROUNDS4(1, X2, X1, X4, X5, X3, X6) // 36-39
	ROUNDS4(2, X1, X2, X5, X6, X4, X3) // 40-43
	ROUNDS4(2, X2, X1, X6, X3, X5, X4) // 44-47
	ROUNDS4(2, X1, X2, X3, X4, X6, X5) // 48-51
	ROUNDS4(2, X2, X1, X4, X5, X3, X6) // 52-55
	ROUNDS4(2, X1, X2, X5, X6, X4, X3) // 56-59
	ROUNDS4(3, X2, X1, X6, X3, X5, X4) // 60-63
	ROUNDS4(3, X1, X2, X3, X4, X6, X5) // 64-67

	// Rounds 68-71: the schedule needs no more SHA1MSG1.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the initial state back and store big-endian h0..h4.
	SHA1NEXTE X9, X1
	PADDD     X8, X0
	PSHUFB    X7, X0
	MOVOU     X0, (DI)
	PEXTRD    $3, X1, AX
	BSWAPL    AX
	MOVL      AX, 16(DI)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
