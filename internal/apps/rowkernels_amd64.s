#include "textflag.h"

// SSE2 only (the GOAMD64=v1 baseline): MOVUPS/MULPS/SUBPS/ADDPS and
// their SS forms for the tail. Every load is unaligned, because a span
// starts at any 4-byte offset into a page, and every memory operand
// goes through MOVUPS first: a packed arithmetic instruction with a
// memory source faults on an address that is not 16-byte aligned.
// Operand order follows the Go oracles (rowkernels.go), one rounding
// per operation, nothing fused.

// func axpySub(dst, x []float32, a float32)
// dst[i] -= a*x[i] for i < min(len(dst), len(x)).
TEXT ·axpySub(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX          // CX = min(len(dst), len(x))
	MOVSS a+48(FP), X0
	SHUFPS $0, X0, X0       // a in all four lanes
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   axpy4

axpy8:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1           // a*x
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	SUBPS  X1, X3           // dst - a*x
	SUBPS  X2, X4
	MOVUPS X3, (DI)
	MOVUPS X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   BX
	JNZ    axpy8

axpy4:
	TESTQ $4, CX
	JZ    axpy1
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	SUBPS  X1, X3
	MOVUPS X3, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI

axpy1:
	ANDQ $3, CX
	JZ   axpydone

axpytail:
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X3
	SUBSS X1, X3
	MOVSS X3, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   axpytail

axpydone:
	RET

// func stencil5(out, up, down, mid []float32)
// out[q] = 0.25*(((up[q]+down[q])+mid[q-1])+mid[q+1]) for 1 <= q < n-1,
// n the shortest of the four lengths; out[0] and out[n-1] are not
// written.
TEXT ·stencil5(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ up_base+24(FP), R8
	MOVQ up_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ down_base+48(FP), R9
	MOVQ down_len+56(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ mid_base+72(FP), SI
	MOVQ mid_len+80(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX          // CX = n
	SUBQ $2, CX             // interior columns
	JLE  stencildone
	MOVL $0x3e800000, AX    // float32(0.25)
	MOVL AX, X0
	SHUFPS $0, X0, X0
	// DI, R8, R9 point at column 1; SI stays at column 0, so the left
	// neighbours are at (SI) and the right ones at 8(SI).
	ADDQ $4, DI
	ADDQ $4, R8
	ADDQ $4, R9
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   stencil1

stencil4:
	MOVUPS (R8), X1
	MOVUPS (R9), X2
	ADDPS  X2, X1           // up+down
	MOVUPS (SI), X2
	ADDPS  X2, X1           // +mid[q-1]
	MOVUPS 8(SI), X2
	ADDPS  X2, X1           // +mid[q+1]
	MULPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, DI
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $16, SI
	DECQ   BX
	JNZ    stencil4

stencil1:
	ANDQ $3, CX
	JZ   stencildone

stenciltail:
	MOVSS (R8), X1
	ADDSS (R9), X1
	ADDSS (SI), X1
	ADDSS 8(SI), X1
	MULSS X0, X1
	MOVSS X1, (DI)
	ADDQ  $4, DI
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, SI
	DECQ  CX
	JNZ   stenciltail

stencildone:
	RET
