//go:build amd64 && !race

#include "textflag.h"

// SSE2 bodies of the five reduce-chain and GEMV kernels. Each one does the
// same arithmetic as its portable loop (axpy4RowGeneric, add4RowGeneric,
// accRowChainGeneric, accRow4ChainGeneric, dotInt8Generic), only several
// columns per
// instruction, and touches only the first len elements its Go wrapper
// (kernels_amd64.go) hands it.

// func axpy4RowSSE2(o []float32, a0, a1, a2, a3 float32, r0, r1, r2, r3 []float32)
//
// o[i] = o[i] + a0*r0[i] + a1*r1[i] + a2*r2[i] + a3*r3[i] for i < len(o),
// summed left to right: one MULPS then one ADDPS per row, so every lane
// rounds exactly as the scalar loop does. Every r must hold len(o) elements.
TEXT ·axpy4RowSSE2(SB), NOSPLIT, $0-136
	MOVQ  o_base+0(FP), DI
	MOVQ  o_len+8(FP), CX
	MOVQ  r0_base+40(FP), R8
	MOVQ  r1_base+64(FP), R9
	MOVQ  r2_base+88(FP), R10
	MOVQ  r3_base+112(FP), R11
	MOVSS a0+24(FP), X4
	SHUFPS $0x00, X4, X4
	MOVSS a1+28(FP), X5
	SHUFPS $0x00, X5, X5
	MOVSS a2+32(FP), X6
	SHUFPS $0x00, X6, X6
	MOVSS a3+36(FP), X7
	SHUFPS $0x00, X7, X7
	XORQ  AX, AX
	MOVQ  CX, BX
	SHRQ  $2, BX
	JZ    axpyTail

	PCALIGN $32
axpyLoop4:
	MOVUPS (DI)(AX*4), X0
	MOVUPS (R8)(AX*4), X1
	MULPS  X4, X1
	ADDPS  X1, X0
	MOVUPS (R9)(AX*4), X2
	MULPS  X5, X2
	ADDPS  X2, X0
	MOVUPS (R10)(AX*4), X3
	MULPS  X6, X3
	ADDPS  X3, X0
	MOVUPS (R11)(AX*4), X1
	MULPS  X7, X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	DECQ   BX
	JNZ    axpyLoop4

axpyTail:
	ANDQ $3, CX
	JZ   axpyDone

	PCALIGN $32
axpyLoop1:
	MOVSS (DI)(AX*4), X0
	MOVSS (R8)(AX*4), X1
	MULSS X4, X1
	ADDSS X1, X0
	MOVSS (R9)(AX*4), X2
	MULSS X5, X2
	ADDSS X2, X0
	MOVSS (R10)(AX*4), X3
	MULSS X6, X3
	ADDSS X3, X0
	MOVSS (R11)(AX*4), X1
	MULSS X7, X1
	ADDSS X1, X0
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	DECQ  CX
	JNZ   axpyLoop1

axpyDone:
	RET

// func add4RowSSE2(o, r0, r1, r2, r3 []float32)
//
// o[i] = o[i] + r0[i] + r1[i] + r2[i] + r3[i] for i < len(o), summed left
// to right: one ADDPS per row, so every lane rounds exactly as the scalar
// ADDSS loop does. The row operands are loaded with MOVUPS first, because
// ADDPS with a memory operand requires 16-byte alignment. Every r must hold
// len(o) elements.
TEXT ·add4RowSSE2(SB), NOSPLIT, $0-120
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ r0_base+24(FP), R8
	MOVQ r1_base+48(FP), R9
	MOVQ r2_base+72(FP), R10
	MOVQ r3_base+96(FP), R11
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   addTail

	PCALIGN $32
addLoop4:
	MOVUPS (DI)(AX*4), X0
	MOVUPS (R8)(AX*4), X1
	ADDPS  X1, X0
	MOVUPS (R9)(AX*4), X2
	ADDPS  X2, X0
	MOVUPS (R10)(AX*4), X3
	ADDPS  X3, X0
	MOVUPS (R11)(AX*4), X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	DECQ   BX
	JNZ    addLoop4

addTail:
	ANDQ $3, CX
	JZ   addDone

	PCALIGN $32
addLoop1:
	MOVSS (DI)(AX*4), X0
	ADDSS (R8)(AX*4), X0
	ADDSS (R9)(AX*4), X0
	ADDSS (R10)(AX*4), X0
	ADDSS (R11)(AX*4), X0
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	DECQ  CX
	JNZ   addLoop1

addDone:
	RET

// func accRowChainSSE2(swar []uint64, row []byte)
//
// Folds len(row)/8 eight-byte chunks of row into swar, two words per chunk,
// in accRowChainGeneric's layout: for chunk c read as the little-endian
// word u, swar[2c] += u & 0x00FF00FF00FF00FF and swar[2c+1] += (u >> 8) &
// 0x00FF00FF00FF00FF. PAND and PSRLW split the even and odd bytes of 16 row
// bytes, PUNPCKLQDQ/PUNPCKHQDQ pair each chunk's halves into one register,
// and PADDQ is the same wrapping uint64 add. len(row) must be a multiple of
// 8 and len(swar) == len(row)/4.
TEXT ·accRowChainSSE2(SB), NOSPLIT, $0-48
	MOVQ swar_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX
	MOVQ $0x00FF00FF00FF00FF, AX
	MOVQ AX, X7
	PUNPCKLQDQ X7, X7
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   chainTail

	PCALIGN $32
chainLoop16:
	MOVOU      (SI), X0
	MOVO       X0, X1
	PAND       X7, X0
	PSRLW      $8, X1
	MOVO       X0, X2
	PUNPCKLQDQ X1, X0
	PUNPCKHQDQ X1, X2
	MOVOU      (DI), X3
	MOVOU      16(DI), X4
	PADDQ      X0, X3
	PADDQ      X2, X4
	MOVOU      X3, (DI)
	MOVOU      X4, 16(DI)
	ADDQ       $16, SI
	ADDQ       $32, DI
	DECQ       BX
	JNZ        chainLoop16

chainTail:
	TESTQ $8, CX
	JZ    chainDone
	MOVQ       (SI), X0
	MOVO       X0, X1
	PAND       X7, X0
	PSRLW      $8, X1
	PUNPCKLQDQ X1, X0
	MOVOU      (DI), X3
	PADDQ      X0, X3
	MOVOU      X3, (DI)

chainDone:
	RET

// func accRow4ChainSSE2(swar []uint64, r0, r1, r2, r3 []byte)
//
// Folds len(r0)/8 eight-byte chunks of four rows into swar in one sweep,
// with accRowChainSSE2's split: PAND keeps each row's even bytes and PSRLW
// $8 its odd ones, PADDQ sums the four rows' even halves and odd halves,
// PUNPCKLQDQ/PUNPCKHQDQ pair each chunk's two sums, and one PADDQ per word
// adds them into swar. uint64 addition is associative modulo 2⁶⁴, so every
// word equals the one four accRowChainSSE2 calls leave. An 8-byte chunk
// left over after the 16-byte loop runs the same steps on the low halves.
// Every r must hold len(r0) bytes, len(r0) must be a multiple of 8 and
// len(swar) == len(r0)/4.
TEXT ·accRow4ChainSSE2(SB), NOSPLIT, $0-120
	MOVQ swar_base+0(FP), DI
	MOVQ r0_base+24(FP), SI
	MOVQ r0_len+32(FP), CX
	MOVQ r1_base+48(FP), R8
	MOVQ r2_base+72(FP), R9
	MOVQ r3_base+96(FP), R10
	MOVQ $0x00FF00FF00FF00FF, AX
	MOVQ AX, X7
	PUNPCKLQDQ X7, X7
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   chain4Tail

	PCALIGN $32
chain4Loop16:
	MOVOU      (SI)(AX*1), X0
	MOVOU      (R8)(AX*1), X1
	MOVOU      (R9)(AX*1), X2
	MOVOU      (R10)(AX*1), X3
	MOVO       X0, X4
	PSRLW      $8, X4
	PAND       X7, X0
	MOVO       X1, X5
	PSRLW      $8, X5
	PAND       X7, X1
	PADDQ      X1, X0
	PADDQ      X5, X4
	MOVO       X2, X5
	PSRLW      $8, X5
	PAND       X7, X2
	PADDQ      X2, X0
	PADDQ      X5, X4
	MOVO       X3, X5
	PSRLW      $8, X5
	PAND       X7, X3
	PADDQ      X3, X0
	PADDQ      X5, X4
	MOVO       X0, X2
	PUNPCKLQDQ X4, X0
	PUNPCKHQDQ X4, X2
	MOVOU      (DI)(AX*2), X5
	MOVOU      16(DI)(AX*2), X6
	PADDQ      X0, X5
	PADDQ      X2, X6
	MOVOU      X5, (DI)(AX*2)
	MOVOU      X6, 16(DI)(AX*2)
	ADDQ       $16, AX
	DECQ       BX
	JNZ        chain4Loop16

chain4Tail:
	TESTQ $8, CX
	JZ    chain4Done
	MOVQ       (SI)(AX*1), X0
	MOVQ       (R8)(AX*1), X1
	MOVQ       (R9)(AX*1), X2
	MOVQ       (R10)(AX*1), X3
	MOVO       X0, X4
	PSRLW      $8, X4
	PAND       X7, X0
	MOVO       X1, X5
	PSRLW      $8, X5
	PAND       X7, X1
	PADDQ      X1, X0
	PADDQ      X5, X4
	MOVO       X2, X5
	PSRLW      $8, X5
	PAND       X7, X2
	PADDQ      X2, X0
	PADDQ      X5, X4
	MOVO       X3, X5
	PSRLW      $8, X5
	PAND       X7, X3
	PADDQ      X3, X0
	PADDQ      X5, X4
	PUNPCKLQDQ X4, X0
	MOVOU      (DI)(AX*2), X5
	PADDQ      X0, X5
	MOVOU      X5, (DI)(AX*2)

chain4Done:
	RET

// func dotInt8SSE2(a, b []int8) int32
//
// Σ a[i]·b[i] over i < len(a) in wrapping int32 arithmetic, like
// dotInt8Generic. PUNPCKLBW/PUNPCKHBW of a register with itself then PSRAW
// $8 sign-extends 16 bytes into two vectors of int16, and PMADDWL multiplies
// them into int32 pair sums (|pair| ≤ 2·128·128, exact). Integer addition is
// associative, so the lane order cannot change the result. b must hold
// len(a) elements.
TEXT ·dotInt8SSE2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	PXOR X0, X0
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   dotTail8

	PCALIGN $32
dotLoop16:
	MOVOU     (SI), X1
	MOVOU     (DI), X2
	MOVO      X1, X3
	MOVO      X2, X4
	PUNPCKLBW X1, X1
	PUNPCKHBW X3, X3
	PUNPCKLBW X2, X2
	PUNPCKHBW X4, X4
	PSRAW     $8, X1
	PSRAW     $8, X3
	PSRAW     $8, X2
	PSRAW     $8, X4
	PMADDWL   X2, X1
	PMADDWL   X4, X3
	PADDL     X1, X0
	PADDL     X3, X0
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      BX
	JNZ       dotLoop16

dotTail8:
	TESTQ $8, CX
	JZ    dotSum
	MOVQ      (SI), X1
	MOVQ      (DI), X2
	PUNPCKLBW X1, X1
	PUNPCKLBW X2, X2
	PSRAW     $8, X1
	PSRAW     $8, X2
	PMADDWL   X2, X1
	PADDL     X1, X0
	ADDQ      $8, SI
	ADDQ      $8, DI

dotSum:
	PSHUFD $0x4E, X0, X1
	PADDL  X1, X0
	PSHUFD $0xB1, X0, X1
	PADDL  X1, X0
	MOVL   X0, AX
	ANDQ   $7, CX
	JZ     dotDone

	PCALIGN $32
dotLoop1:
	MOVBLSX (SI), DX
	MOVBLSX (DI), R8
	IMULL   R8, DX
	ADDL    DX, AX
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNZ     dotLoop1

dotDone:
	MOVL AX, ret+48(FP)
	RET
