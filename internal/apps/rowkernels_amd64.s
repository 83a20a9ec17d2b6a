#include "textflag.h"

// SSE2 only (the GOAMD64=v1 baseline): MOVUPS/MULPS/SUBPS/ADDPS and
// their SS forms for the tail, and the PD/SD forms for nbfSum. Every
// load is unaligned, because a span starts at any 4-byte offset into a
// page (and a gathered partner list anywhere in its slice), and every
// memory operand goes through MOVUPS/MOVUPD first: a packed arithmetic
// instruction with a memory source faults on an address that is not
// 16-byte aligned. Operand order follows the Go oracles
// (rowkernels.go), one rounding per operation, nothing fused.
// mergeBitsLoop, mergesort's merge, uses general-purpose registers
// only: CMPQ and CMOVQ, which every amd64 has.
//
// axpySub and stencil5 also report which elements they changed: each
// stored value is compared with the bits it replaces by PCMPEQL, a
// bitwise compare (so -0 against +0 and two NaN payloads differ, as
// in page.Scan, and a NaN equals its own bits).

// The change bits of eight lanes — two PCMPEQL results, all-ones where
// a lane kept its bits — are narrowed to one byte by PACKSSLW and
// PACKSSWB (saturation keeps 0 and -1 apart), gathered by PMOVMSKB and
// inverted; the byte is ORed into the bitmap, which on a little-endian
// host holds bit b of a []uint64 in byte b/8. The eight-lane loop
// therefore starts on a byte: single elements run first up to the byte
// holding bit at's end (the head), and the 4-lane step and the single
// elements after the loop (the tail) gather the last, partial byte. A
// partial byte collects in DX, its next bit in CX, and is ORed in once
// complete or at the end.

// AXPY1 is one scalar element of axpySub: dst -= a*x, its change bit
// into DX at bit CX, both pointers on, R12 (and the flags) down by one.
// MOVSS from memory clears the upper lanes of X3 and X5 and the SS
// operations keep them, so only lane 0 can differ.
#define AXPY1 \
	MOVSS (SI), X1; \
	MULSS X0, X1; \
	MOVSS (DI), X3; \
	MOVAPS X3, X5; \
	SUBSS X1, X3; \
	MOVSS X3, (DI); \
	PCMPEQL X3, X5; \
	MOVMSKPS X5, AX; \
	NOTL AX; \
	ANDL $1, AX; \
	SHLL CX, AX; \
	ORL AX, DX; \
	INCL CX; \
	ADDQ $4, SI; \
	ADDQ $4, DI; \
	DECQ R12

// func axpySub(dst, x []float32, a float32, chg []uint64, at int)
// dst[i] -= a*x[i] for i < n = min(len(dst), len(x), 64*len(chg)-at),
// and bit at+i of chg is set when that changed dst[i]'s bits.
TEXT ·axpySub(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R12
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	CMPQ DX, R12
	CMOVQLT DX, R12
	MOVQ chg_base+56(FP), R10
	MOVQ chg_len+64(FP), DX
	MOVQ at+80(FP), R11
	SHLQ $6, DX
	SUBQ R11, DX            // the bits from at to the bitmap's end
	CMPQ DX, R12
	CMOVQLT DX, R12         // R12 = n
	TESTQ R12, R12
	JLE  axpydone
	MOVSS a+48(FP), X0
	SHUFPS $0, X0, X0       // a in all four lanes
	XORL DX, DX             // the partial byte
	MOVQ R11, CX
	SHRQ $3, R11
	ADDQ R11, R10           // R10 = the byte holding bit at
	ANDL $7, CX             // and its bit there
	JZ   axpybody

axpyhead:
	AXPY1
	JZ   axpyflush
	CMPL CX, $8
	JLT  axpyhead
	ORB  DX, (R10)
	INCQ R10
	XORL DX, DX
	XORL CX, CX

axpybody:
	MOVQ R12, BX
	SHRQ $3, BX
	JZ   axpy4

axpy8:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1           // a*x
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	MOVAPS X3, X5           // the bits replaced
	MOVAPS X4, X6
	SUBPS  X1, X3           // dst - a*x
	SUBPS  X2, X4
	MOVUPS X3, (DI)
	MOVUPS X4, 16(DI)
	PCMPEQL X3, X5
	PCMPEQL X4, X6
	PACKSSLW X6, X5
	PACKSSWB X5, X5
	PMOVMSKB X5, AX
	NOTL   AX
	ORB    AX, (R10)
	INCQ   R10
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    axpy8

axpy4:
	TESTQ $4, R12
	JZ    axpy1
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	MOVAPS X3, X5
	SUBPS  X1, X3
	MOVUPS X3, (DI)
	PCMPEQL X3, X5
	MOVMSKPS X5, DX
	XORL   $15, DX
	MOVL   $4, CX
	ADDQ   $16, SI
	ADDQ   $16, DI

axpy1:
	ANDQ $3, R12
	JZ   axpyflush

axpytail:
	AXPY1
	JNZ  axpytail

axpyflush:
	TESTL CX, CX
	JZ    axpydone
	ORB   DX, (R10)

axpydone:
	RET

// STENCIL1 is one scalar column of stencil5, as AXPY1 is of axpySub.
#define STENCIL1 \
	MOVSS (R8), X1; \
	ADDSS (R9), X1; \
	ADDSS (SI), X1; \
	ADDSS 8(SI), X1; \
	MULSS X0, X1; \
	MOVSS (DI), X3; \
	MOVSS X1, (DI); \
	PCMPEQL X1, X3; \
	MOVMSKPS X3, AX; \
	NOTL AX; \
	ANDL $1, AX; \
	SHLL CX, AX; \
	ORL AX, DX; \
	INCL CX; \
	ADDQ $4, DI; \
	ADDQ $4, R8; \
	ADDQ $4, R9; \
	ADDQ $4, SI; \
	DECQ R12

// func stencil5(out, up, down, mid []float32, chg []uint64, at int)
// out[q] = 0.25*(((up[q]+down[q])+mid[q-1])+mid[q+1]) for 1 <= q < n-1,
// n the shortest of the four lengths and 64*len(chg)-at+2; out[0] and
// out[n-1] are not written. Bit at+q-1 of chg is set when out[q]'s
// bits changed.
TEXT ·stencil5(SB), NOSPLIT, $0-128
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R12
	MOVQ up_base+24(FP), R8
	MOVQ up_len+32(FP), DX
	CMPQ DX, R12
	CMOVQLT DX, R12
	MOVQ down_base+48(FP), R9
	MOVQ down_len+56(FP), DX
	CMPQ DX, R12
	CMOVQLT DX, R12
	MOVQ mid_base+72(FP), SI
	MOVQ mid_len+80(FP), DX
	CMPQ DX, R12
	CMOVQLT DX, R12         // R12 = n
	SUBQ $2, R12            // interior columns
	MOVQ chg_base+96(FP), R10
	MOVQ chg_len+104(FP), DX
	MOVQ at+120(FP), R11
	SHLQ $6, DX
	SUBQ R11, DX
	CMPQ DX, R12
	CMOVQLT DX, R12         // at most one column per chg bit from at
	TESTQ R12, R12
	JLE  stencildone
	MOVL $0x3e800000, AX    // float32(0.25)
	MOVL AX, X0
	SHUFPS $0, X0, X0
	// DI, R8, R9 point at column 1; SI stays at column 0, so the left
	// neighbours are at (SI) and the right ones at 8(SI).
	ADDQ $4, DI
	ADDQ $4, R8
	ADDQ $4, R9
	XORL DX, DX             // the partial byte
	MOVQ R11, CX
	SHRQ $3, R11
	ADDQ R11, R10           // R10 = the byte holding bit at
	ANDL $7, CX             // and its bit there
	JZ   stencilbody

stencilhead:
	STENCIL1
	JZ   stencilflush
	CMPL CX, $8
	JLT  stencilhead
	ORB  DX, (R10)
	INCQ R10
	XORL DX, DX
	XORL CX, CX

stencilbody:
	MOVQ R12, BX
	SHRQ $3, BX
	JZ   stencil4

stencil8:
	MOVUPS (R8), X1
	MOVUPS (R9), X2
	ADDPS  X2, X1           // up+down
	MOVUPS (SI), X2
	ADDPS  X2, X1           // +mid[q-1]
	MOVUPS 8(SI), X2
	ADDPS  X2, X1           // +mid[q+1]
	MULPS  X0, X1
	MOVUPS 16(R8), X4       // the same for columns q+4 to q+7
	MOVUPS 16(R9), X5
	ADDPS  X5, X4
	MOVUPS 16(SI), X5
	ADDPS  X5, X4
	MOVUPS 24(SI), X5
	ADDPS  X5, X4
	MULPS  X0, X4
	MOVUPS (DI), X3         // the bits replaced
	MOVUPS 16(DI), X6
	MOVUPS X1, (DI)
	MOVUPS X4, 16(DI)
	PCMPEQL X1, X3
	PCMPEQL X4, X6
	PACKSSLW X6, X3
	PACKSSWB X3, X3
	PMOVMSKB X3, AX
	NOTL   AX
	ORB    AX, (R10)
	INCQ   R10
	ADDQ   $32, DI
	ADDQ   $32, R8
	ADDQ   $32, R9
	ADDQ   $32, SI
	DECQ   BX
	JNZ    stencil8

stencil4:
	TESTQ $4, R12
	JZ    stencil1
	MOVUPS (R8), X1
	MOVUPS (R9), X2
	ADDPS  X2, X1
	MOVUPS (SI), X2
	ADDPS  X2, X1
	MOVUPS 8(SI), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	MOVUPS X1, (DI)
	PCMPEQL X1, X3
	MOVMSKPS X3, DX
	XORL   $15, DX
	MOVL   $4, CX
	ADDQ   $16, DI
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $16, SI

stencil1:
	ANDQ $3, R12
	JZ   stencilflush

stenciltail:
	STENCIL1
	JNZ  stenciltail

stencilflush:
	TESTL CX, CX
	JZ    stencildone
	ORB   DX, (R10)

stencildone:
	RET

// func nbfSum(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64)
// For j < n, the shortest of the three lengths, d = (xs[j]-xi,
// ys[j]-yi, zs[j]-zi), r2 = ((dx*dx + dy*dy) + dz*dz) + 0.01 and
// inv = 1/(r2*r2); sx += dx*inv, sy += dy*inv, sz += dz*inv, from +0, in
// j order. Two partners an iteration: one packed pass computes both
// lanes' forces, then lane 0 and then lane 1 is added to each sum, so
// the sums see the partners in order; a scalar step takes an odd last
// one.
TEXT ·nbfSum(SB), NOSPLIT, $0-120
	MOVSD xi+0(FP), X0
	UNPCKLPD X0, X0         // xi in both lanes
	MOVSD yi+8(FP), X1
	UNPCKLPD X1, X1
	MOVSD zi+16(FP), X2
	UNPCKLPD X2, X2
	MOVQ $0x3f847ae147ae147b, AX // float64(0.01)
	MOVQ AX, X3
	UNPCKLPD X3, X3
	MOVQ $0x3ff0000000000000, AX // float64(1)
	MOVQ AX, X4
	UNPCKLPD X4, X4
	XORPS X5, X5            // sx = +0
	XORPS X6, X6            // sy
	XORPS X7, X7            // sz
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), CX
	MOVQ ys_base+48(FP), DI
	MOVQ ys_len+56(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ zs_base+72(FP), R8
	MOVQ zs_len+80(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX          // CX = n
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   nbf1

nbf2:
	MOVUPD (SI), X8
	SUBPD  X0, X8           // dx = xj-xi
	MOVUPD (DI), X9
	SUBPD  X1, X9           // dy
	MOVUPD (R8), X10
	SUBPD  X2, X10          // dz
	MOVAPD X8, X11
	MULPD  X8, X11          // dx*dx
	MOVAPD X9, X12
	MULPD  X9, X12          // dy*dy
	ADDPD  X12, X11         // dx*dx + dy*dy
	MOVAPD X10, X12
	MULPD  X10, X12         // dz*dz
	ADDPD  X12, X11         // + dz*dz
	ADDPD  X3, X11          // + 0.01 = r2
	MULPD  X11, X11         // r2*r2
	MOVAPD X4, X12
	DIVPD  X11, X12         // inv = 1/(r2*r2)
	MULPD  X12, X8          // dx*inv
	MULPD  X12, X9          // dy*inv
	MULPD  X12, X10         // dz*inv
	ADDSD  X8, X5           // lane 0
	ADDSD  X9, X6
	ADDSD  X10, X7
	UNPCKHPD X8, X8         // lane 1 down to lane 0
	UNPCKHPD X9, X9
	UNPCKHPD X10, X10
	ADDSD  X8, X5           // lane 1
	ADDSD  X9, X6
	ADDSD  X10, X7
	ADDQ   $16, SI
	ADDQ   $16, DI
	ADDQ   $16, R8
	DECQ   BX
	JNZ    nbf2

nbf1:
	ANDQ $1, CX
	JZ   nbfdone
	MOVSD (SI), X8
	SUBSD X0, X8
	MOVSD (DI), X9
	SUBSD X1, X9
	MOVSD (R8), X10
	SUBSD X2, X10
	MOVSD X8, X11
	MULSD X8, X11
	MOVSD X9, X12
	MULSD X9, X12
	ADDSD X12, X11
	MOVSD X10, X12
	MULSD X10, X12
	ADDSD X12, X11
	ADDSD X3, X11
	MULSD X11, X11
	MOVSD X4, X12
	DIVSD X11, X12
	MULSD X12, X8
	MULSD X12, X9
	MULSD X12, X10
	ADDSD X8, X5
	ADDSD X9, X6
	ADDSD X10, X7

nbfdone:
	MOVSD X5, sx+96(FP)
	MOVSD X6, sy+104(FP)
	MOVSD X7, sz+112(FP)
	RET

// func mergeBitsLoop(out, left, right []float64) (a, b int)
// Merges until out is full or a side is exhausted; a and b are the
// keys taken from left and right. The keys are compared as bit
// patterns: CMPQ BX, AX sets the carry exactly when right's pattern is
// below left's, so a clear carry takes left (ties go to the left) and
// a set one takes right. On non-negative, non-NaN keys that is the
// order of their values. The carry conditions read one flag, so each
// CMOV on them is one micro-op; BE and A, the obvious pair, read two.
// Pointers walk all three slices; R10 and R11 hold left's and right's
// ends.
//
// The main loop keeps both current keys in AX and BX and loads the key
// after each into R13 and R14 before the compare, so no load waits on
// it: the select moves the taken side's next key and cursor in by
// CMOV, and the chain from one compare to the next is one CMOV. A
// batch of R12 steps may read one key past each current key, so R12 is
// the fewest of out's room and each side's keys after its current one;
// batches repeat until that is zero, and the single steps of the tail
// load both keys afresh with every bound checked.
TEXT ·mergeBitsLoop(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ left_base+24(FP), SI
	MOVQ left_len+32(FP), R10
	LEAQ (SI)(R10*8), R10   // left's end
	MOVQ right_base+48(FP), DX
	MOVQ right_len+56(FP), R11
	LEAQ (DX)(R11*8), R11   // right's end

mergebatch:
	MOVQ out_len+8(FP), R12
	SHLQ $3, R12
	ADDQ out_base+0(FP), R12
	SUBQ DI, R12            // out's room, in bytes
	MOVQ R10, R13
	SUBQ SI, R13
	SUBQ $8, R13            // left's keys after the current one
	CMPQ R13, R12
	CMOVQLT R13, R12
	MOVQ R11, R13
	SUBQ DX, R13
	SUBQ $8, R13            // right's
	CMPQ R13, R12
	CMOVQLT R13, R12
	SARQ $3, R12            // in keys
	TESTQ R12, R12
	JLE  mergetail
	MOVQ (SI), AX
	MOVQ (DX), BX

mergeloop:
	MOVQ 8(SI), R13         // the key after each current one
	MOVQ 8(DX), R14
	LEAQ 8(SI), R8          // and each cursor one on
	LEAQ 8(DX), R9
	MOVQ AX, CX
	CMPQ BX, AX
	CMOVQCS BX, CX          // the smaller key, ties to the left
	CMOVQCC R8, SI          // the side taken moves on
	CMOVQCS R9, DX
	CMOVQCC R13, AX
	CMOVQCS R14, BX
	MOVQ CX, (DI)
	ADDQ $8, DI
	DECQ R12
	JNZ  mergeloop
	JMP  mergebatch

mergetail:
	MOVQ out_len+8(FP), CX
	SHLQ $3, CX
	ADDQ out_base+0(FP), CX // out's end

mergestep:
	CMPQ DI, CX
	JAE  mergedone
	CMPQ SI, R10
	JAE  mergedone
	CMPQ DX, R11
	JAE  mergedone
	MOVQ (SI), AX
	MOVQ (DX), BX
	LEAQ 8(SI), R8
	LEAQ 8(DX), R9
	MOVQ AX, R13
	CMPQ BX, AX
	CMOVQCS BX, R13
	CMOVQCC R8, SI
	CMOVQCS R9, DX
	MOVQ R13, (DI)
	ADDQ $8, DI
	JMP  mergestep

mergedone:
	SUBQ left_base+24(FP), SI
	SHRQ $3, SI
	MOVQ SI, a+72(FP)
	SUBQ right_base+48(FP), DX
	SHRQ $3, DX
	MOVQ DX, b+80(FP)
	RET
