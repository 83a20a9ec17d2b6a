#include "textflag.h"

// SSE2 only (the GOAMD64=v1 baseline), every load unaligned: a page
// buffer may sit at any address. SSE2 has no 64-bit compare, so a word
// is compared as its two dwords (PCMPEQL), the halves are swapped
// (PSHUFD $0xB1) and ANDed, which leaves a qword all ones exactly when
// both halves matched, and MOVMSKPD reads the two qword sign bits.
// Four such pairs make the eight bits of one 64-byte group; eight
// groups shift down into one lane of the mask, which is inverted once
// (equal -> changed) as it is stored.

// func scanPage(m *Mask, twin, current *[Size]byte)
TEXT ·scanPage(SB), NOSPLIT, $0-24
	MOVQ m+0(FP), DI
	MOVQ twin+8(FP), SI
	MOVQ current+16(FP), DX
	MOVQ $8, CX             // lanes of 64 words

scanlane:
	XORQ AX, AX
	MOVQ $8, BX             // groups of 8 words

scangroup:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU (DX), X4
	MOVOU 16(DX), X5
	MOVOU 32(DX), X6
	MOVOU 48(DX), X7
	PCMPEQL X4, X0          // dword equal
	PCMPEQL X5, X1
	PCMPEQL X6, X2
	PCMPEQL X7, X3
	PSHUFD $0xB1, X0, X4    // the two dwords of each qword swapped
	PSHUFD $0xB1, X1, X5
	PSHUFD $0xB1, X2, X6
	PSHUFD $0xB1, X3, X7
	PAND X4, X0             // qword all ones iff both halves equal
	PAND X5, X1
	PAND X6, X2
	PAND X7, X3
	MOVMSKPD X0, R8         // bit 0: word 0, bit 1: word 1 of the pair
	MOVMSKPD X1, R9
	MOVMSKPD X2, R10
	MOVMSKPD X3, R11
	LEAQ (R8)(R9*4), R8     // words 0-3
	LEAQ (R10)(R11*4), R10  // words 4-7
	SHLQ $4, R10
	ORQ  R10, R8            // bit w set: word w of the group is equal
	SHLQ $56, R8
	SHRQ $8, AX             // earlier groups move down a byte
	ORQ  R8, AX
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ BX
	JNZ  scangroup

	NOTQ AX                 // equal -> changed
	MOVQ AX, (DI)
	ADDQ $8, DI
	DECQ CX
	JNZ  scanlane
	RET
