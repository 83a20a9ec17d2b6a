#include "textflag.h"

// axpySubAVX2 and stencil5AVX2 are AVX2 and VEX-encoded throughout,
// their scalar head and tail included, so no legacy-SSE instruction
// meets a dirty upper register half; each ends in VZEROUPPER before
// RET, because the Go code around them, nbfSum and page.Scan are
// legacy SSE. They run only where cpuHasAVX2 (below) said yes at
// package init; see rowkernels_amd64.go. Every load is unaligned (a
// span starts at any 4-byte offset into a page): VMOVUPS, and VEX
// arithmetic may take an unaligned memory operand. Operand order
// follows the Go oracles (rowkernels.go) and the SSE2 kernels these
// replace: one rounding per operation, nothing fused (no FMA), and the
// first source of every VEX operation is the one the SSE2 code had as
// its destination, so when both operands are NaNs the result carries
// the same payload (TestRowKernelsNaNPayloads).
//
// nbfSum stays SSE2 (the GOAMD64=v1 baseline, two partners a
// register): a four-partner AVX2 sum measured no faster, because
// VDIVPD has DIVPD's throughput per lane. mergeBitsLoop, mergesort's
// merge, uses general-purpose registers only: CMPQ and CMOVQ, which
// every amd64 has.
//
// axpySubAVX2 and stencil5AVX2 also report which elements they
// changed: each stored value is compared with the bits it replaces by
// VPCMPEQD, a bitwise compare (so -0 against +0 and two NaN payloads
// differ, as in page.Scan, and a NaN equals its own bits).

// The change bits of eight lanes — one VPCMPEQD result, all-ones where
// a lane kept its bits — are gathered by VMOVMSKPS and inverted into
// one byte of the bitmap, which on a little-endian host holds bit b of
// a []uint64 in byte b/8; the sixteen-lane loop ORs two such bytes in
// as one word. The vector steps therefore start on a byte: single
// elements run first up to the byte holding bit at's end (the head),
// and the 4-lane step and the single elements after the vector steps
// (the tail) gather the last, partial byte. A partial byte collects in
// DX, its next bit in CX, and is ORed in once complete or at the end.

// AXPY1 is one scalar element of axpySubAVX2: dst -= a*x, its change
// bit into DX at bit CX, both pointers on, R12 (and the flags) down by
// one. VMOVSS from memory clears lanes 1 to 3 of X1 and X3, and a VEX
// scalar operation copies them from its first source, so only lane 0
// can differ.
#define AXPY1 \
	VMOVSS (SI), X1; \
	VMULSS X0, X1, X1; \
	VMOVSS (DI), X3; \
	VSUBSS X1, X3, X5; \
	VMOVSS X5, (DI); \
	VPCMPEQD X5, X3, X3; \
	VMOVMSKPS X3, AX; \
	NOTL AX; \
	ANDL $1, AX; \
	SHLL CX, AX; \
	ORL AX, DX; \
	INCL CX; \
	ADDQ $4, SI; \
	ADDQ $4, DI; \
	DECQ R12

// func axpySubAVX2(dst, x []float32, a float32, chg []uint64, at int)
// dst[i] -= a*x[i] for i < n = min(len(dst), len(x), 64*len(chg)-at),
// and bit at+i of chg is set when that changed dst[i]'s bits.
TEXT ·axpySubAVX2(SB), NOSPLIT, $0-88
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
	VBROADCASTSS a+48(FP), Y0 // a in all eight lanes
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
	SHRQ $4, BX
	JZ   axpy8

axpy16:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMULPS  Y0, Y1, Y1      // x*a
	VMULPS  Y0, Y2, Y2
	VMOVUPS (DI), Y3        // the bits replaced
	VMOVUPS 32(DI), Y4
	VSUBPS  Y1, Y3, Y1      // dst - a*x
	VSUBPS  Y2, Y4, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VPCMPEQD Y1, Y3, Y3
	VPCMPEQD Y2, Y4, Y4
	VMOVMSKPS Y3, AX
	VMOVMSKPS Y4, R13
	SHLL   $8, R13
	ORL    R13, AX
	NOTL   AX
	ORW    AX, (R10)
	ADDQ   $2, R10
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    axpy16

axpy8:
	TESTQ $8, R12
	JZ    axpy4
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI), Y3
	VSUBPS  Y1, Y3, Y1
	VMOVUPS Y1, (DI)
	VPCMPEQD Y1, Y3, Y3
	VMOVMSKPS Y3, AX
	NOTL   AX
	ORB    AX, (R10)
	INCQ   R10
	ADDQ   $32, SI
	ADDQ   $32, DI

axpy4:
	TESTQ $4, R12
	JZ    axpy1
	VMOVUPS (SI), X1
	VMULPS  X0, X1, X1
	VMOVUPS (DI), X3
	VSUBPS  X1, X3, X1
	VMOVUPS X1, (DI)
	VPCMPEQD X1, X3, X3
	VMOVMSKPS X3, DX
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
	VZEROUPPER
	RET

// STENCIL1 is one scalar column of stencil5AVX2, as AXPY1 is of
// axpySubAVX2.
#define STENCIL1 \
	VMOVSS (R8), X1; \
	VADDSS (R9), X1, X1; \
	VADDSS (SI), X1, X1; \
	VADDSS 8(SI), X1, X1; \
	VMULSS X0, X1, X1; \
	VMOVSS (DI), X3; \
	VMOVSS X1, (DI); \
	VPCMPEQD X1, X3, X3; \
	VMOVMSKPS X3, AX; \
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

// func stencil5AVX2(out, up, down, mid []float32, chg []uint64, at int)
// out[q] = 0.25*(((up[q]+down[q])+mid[q-1])+mid[q+1]) for 1 <= q < n-1,
// n the shortest of the four lengths and 64*len(chg)-at+2; out[0] and
// out[n-1] are not written. Bit at+q-1 of chg is set when out[q]'s
// bits changed.
TEXT ·stencil5AVX2(SB), NOSPLIT, $0-128
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
	VMOVD AX, X0
	VBROADCASTSS X0, Y0
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
	SHRQ $4, BX
	JZ   stencil8

stencil16:
	VMOVUPS (R8), Y1
	VADDPS  (R9), Y1, Y1    // up+down
	VADDPS  (SI), Y1, Y1    // +mid[q-1]
	VADDPS  8(SI), Y1, Y1   // +mid[q+1]
	VMULPS  Y0, Y1, Y1
	VMOVUPS 32(R8), Y2      // the same for columns q+8 to q+15
	VADDPS  32(R9), Y2, Y2
	VADDPS  32(SI), Y2, Y2
	VADDPS  40(SI), Y2, Y2
	VMULPS  Y0, Y2, Y2
	VMOVUPS (DI), Y3        // the bits replaced
	VMOVUPS 32(DI), Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VPCMPEQD Y1, Y3, Y3
	VPCMPEQD Y2, Y4, Y4
	VMOVMSKPS Y3, AX
	VMOVMSKPS Y4, R13
	SHLL   $8, R13
	ORL    R13, AX
	NOTL   AX
	ORW    AX, (R10)
	ADDQ   $2, R10
	ADDQ   $64, DI
	ADDQ   $64, R8
	ADDQ   $64, R9
	ADDQ   $64, SI
	DECQ   BX
	JNZ    stencil16

stencil8:
	TESTQ $8, R12
	JZ    stencil4
	VMOVUPS (R8), Y1
	VADDPS  (R9), Y1, Y1
	VADDPS  (SI), Y1, Y1
	VADDPS  8(SI), Y1, Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI), Y3
	VMOVUPS Y1, (DI)
	VPCMPEQD Y1, Y3, Y3
	VMOVMSKPS Y3, AX
	NOTL   AX
	ORB    AX, (R10)
	INCQ   R10
	ADDQ   $32, DI
	ADDQ   $32, R8
	ADDQ   $32, R9
	ADDQ   $32, SI

stencil4:
	TESTQ $4, R12
	JZ    stencil1
	VMOVUPS (R8), X1
	VADDPS  (R9), X1, X1
	VADDPS  (SI), X1, X1
	VADDPS  8(SI), X1, X1
	VMULPS  X0, X1, X1
	VMOVUPS (DI), X3
	VMOVUPS X1, (DI)
	VPCMPEQD X1, X3, X3
	VMOVMSKPS X3, DX
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
	VZEROUPPER
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

// func xgetbv() (eax uint32)
// The low half of XCR0; only valid where CPUID says OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
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
