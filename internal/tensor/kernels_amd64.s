//go:build amd64 && !race

#include "textflag.h"

// SSE2 bodies of the five reduce-chain and GEMV kernels. Each one does
// the same arithmetic as its portable loop (sumRowsGeneric,
// axpyRowsGeneric, accRowChainGeneric, accRow4ChainGeneric,
// dotInt8Generic), only several columns per instruction, and touches only
// the elements its Go caller hands it.

// The two fp32 kernels are output-stationary: they walk a list of row
// indices once per panel of output columns and keep the panel in XMM
// registers for the whole list, so each output element is loaded and
// stored once per call. Whole 32-column panels (eight accumulators) run
// while more than 32 columns remain; the last r ≤ 32 columns then take one
// walk of the smallest panel that holds them: 32, 16, 8 or 4 columns, or
// a scalar walk for r < 4. r of 17-20 takes a whole 16-column panel and
// then one more walk for the rest instead, which measured faster than a
// 32-column panel doing twice the work. A panel is two halves, the upper
// one ending at column r, so when r is below the panel's width the halves
// overlap. The
// overlapping columns start from the same stored values in both halves and
// add the same rows in the same order, so both halves hold the same bits
// there and storing both is harmless. Every column still gets one rounded
// product (axpy form) and one rounded add per row, in list order, so
// neither the panel width nor the overlap changes a result bit.
//
// Registers in both kernels:
//   DI  output panel        SI  its upper half        CX  output columns left
//   R8  data + panel offset R12 its upper half        DX  row stride, bytes
//   R9  nrows               R10 end of rows           R11 len(rows)
//   BX  list position − len(rows), counting up to 0   AX  row byte offset
//   R13 end of coefs (axpy) X0-X7 accumulators        X8  coefficient
//   X9-X14 row loads and products
//
// ROWPTR loads the list's next index sign-extended and jumps to bad unless
// it is below nrows as an unsigned number (so a negative index fails too),
// before any load from the row; then (R8)(AX*1) and (R12)(AX*1) are the
// row's panel halves.
#define ROWPTR \
	MOVLQSX (R10)(BX*4), AX; \
	CMPQ    AX, R9; \
	JCC     bad; \
	IMULQ   DX, AX

// COEF broadcasts the row's coefficient into all four lanes of X8.
#define COEF \
	MOVSS  (R13)(BX*4), X8; \
	SHUFPS $0x00, X8, X8

// ADDV adds four row columns at off past base into acc. The row is loaded
// with MOVUPS first because ADDPS with a memory operand needs 16-byte
// alignment.
#define ADDV(base, off, t, acc) \
	MOVUPS off(base)(AX*1), t; \
	ADDPS  t, acc

// AXPYV adds coefficient·row for four columns at off past base: one MULPS,
// then one ADDPS, never fused.
#define AXPYV(base, off, t, acc) \
	MOVUPS off(base)(AX*1), t; \
	MULPS  X8, t; \
	ADDPS  t, acc

// FIRSTROW starts a walk of the whole list.
#define FIRSTROW \
	MOVQ R11, BX; \
	NEGQ BX

// NEXTROW advances the list position and loops while rows remain.
#define NEXTROW(loop) \
	INCQ BX; \
	JNZ  loop

// UPPER points SI and R12 at the panel's upper half, R12 bytes in.
#define UPPER \
	LEAQ (DI)(R12*1), SI; \
	ADDQ R8, R12

// LASTHALF sets R12 to the byte offset of a half of cols columns that
// ends at column CX.
#define LASTHALF(cols) \
	MOVQ CX, R12; \
	SUBQ $cols, R12; \
	SHLQ $2, R12

#define LD1(p, a) MOVUPS 0(p), a
#define LD2(p, a, b) LD1(p, a); MOVUPS 16(p), b
#define LD4(p, a, b, c, d) LD2(p, a, b); MOVUPS 32(p), c; MOVUPS 48(p), d
#define ST1(p, a) MOVUPS a, 0(p)
#define ST2(p, a, b) ST1(p, a); MOVUPS b, 16(p)
#define ST4(p, a, b, c, d) ST2(p, a, b); MOVUPS c, 32(p); MOVUPS d, 48(p)

// The prologue both kernels share: it returns len(rows) at once for an
// empty list or a zero width, where nothing is read.
#define PROLOGUE(done) \
	MOVQ  o_base+0(FP), DI; \
	MOVQ  o_len+8(FP), CX; \
	MOVQ  data_base+24(FP), R8; \
	MOVQ  nrows+48(FP), R9; \
	MOVQ  rows_base+56(FP), R10; \
	MOVQ  rows_len+64(FP), R11; \
	LEAQ  (R10)(R11*4), R10; \
	MOVQ  CX, DX; \
	SHLQ  $2, DX; \
	TESTQ R11, R11; \
	JZ    done; \
	TESTQ CX, CX; \
	JZ    done

// func sumRowsSSE2(o, data []float32, nrows int, rows []int32) int
//
// o[j] = o[j] + data[r·len(o)+j] for each r in rows, in list order, summed
// left to right: one ADDPS (ADDSS in the tail) per row, so every lane
// rounds exactly as the scalar loop does. It returns len(rows), or the
// list position of the first index outside [0, nrows), whose row it never
// reads: the first walk meets that index before anything is stored, so o
// is left as it was. data must hold nrows·len(o) elements.
TEXT ·sumRowsSSE2(SB), NOSPLIT, $0-88
	PROLOGUE(sumDone)

sum32:
	MOVQ $64, R12
	CMPQ CX, $32
	JHI  sum32Walk // a whole panel, more to come
	CMPQ CX, $20
	JLS  sum16
	LASTHALF(16)

sum32Walk:
	UPPER
	LD4(DI, X0, X1, X2, X3)
	LD4(SI, X4, X5, X6, X7)
	FIRSTROW

	PCALIGN $32
sum32Row:
	ROWPTR
	ADDV(R8, 0, X9, X0)
	ADDV(R8, 16, X10, X1)
	ADDV(R8, 32, X11, X2)
	ADDV(R8, 48, X12, X3)
	ADDV(R12, 0, X13, X4)
	ADDV(R12, 16, X14, X5)
	ADDV(R12, 32, X9, X6)
	ADDV(R12, 48, X10, X7)
	NEXTROW(sum32Row)
	ST4(DI, X0, X1, X2, X3)
	ST4(SI, X4, X5, X6, X7)
	CMPQ CX, $32
	JLS  sumDone
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $32, CX
	JMP  sum32

sum16:
	MOVQ $32, R12
	CMPQ CX, $16
	JHI  sum16Walk // 17-20 columns: a whole panel, then the rest
	CMPQ CX, $8
	JLS  sum8
	LASTHALF(8)

sum16Walk:
	UPPER
	LD2(DI, X0, X1)
	LD2(SI, X2, X3)
	FIRSTROW

	PCALIGN $32
sum16Row:
	ROWPTR
	ADDV(R8, 0, X9, X0)
	ADDV(R8, 16, X10, X1)
	ADDV(R12, 0, X11, X2)
	ADDV(R12, 16, X12, X3)
	NEXTROW(sum16Row)
	ST2(DI, X0, X1)
	ST2(SI, X2, X3)
	CMPQ CX, $16
	JLS  sumDone
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $16, CX

sum8:
	CMPQ CX, $4
	JLS  sum4
	LASTHALF(4)
	UPPER
	LD1(DI, X0)
	LD1(SI, X1)
	FIRSTROW

	PCALIGN $32
sum8Row:
	ROWPTR
	ADDV(R8, 0, X9, X0)
	ADDV(R12, 0, X10, X1)
	NEXTROW(sum8Row)
	ST1(DI, X0)
	ST1(SI, X1)
	JMP sumDone

sum4:
	CMPQ CX, $4
	JCS  sumTail
	LD1(DI, X0)
	FIRSTROW

	PCALIGN $32
sum4Row:
	ROWPTR
	ADDV(R8, 0, X9, X0)
	NEXTROW(sum4Row)
	ST1(DI, X0)
	JMP sumDone

// 1-3 columns: two through the low half of X0 (MOVQ; the zero upper lanes
// it loads are never stored) and one through X1, in one walk.
sumTail:
	FIRSTROW
	CMPQ CX, $2
	JCS  sum1
	JEQ  sum2
	MOVQ  (DI), X0
	MOVSS 8(DI), X1

	PCALIGN $32
sum3Row:
	ROWPTR
	MOVQ  (R8)(AX*1), X9
	ADDPS X9, X0
	ADDSS 8(R8)(AX*1), X1
	NEXTROW(sum3Row)
	MOVQ  X0, (DI)
	MOVSS X1, 8(DI)
	JMP   sumDone

sum2:
	MOVQ (DI), X0

	PCALIGN $32
sum2Row:
	ROWPTR
	MOVQ  (R8)(AX*1), X9
	ADDPS X9, X0
	NEXTROW(sum2Row)
	MOVQ X0, (DI)
	JMP  sumDone

sum1:
	MOVSS (DI), X1

	PCALIGN $32
sum1Row:
	ROWPTR
	ADDSS (R8)(AX*1), X1
	NEXTROW(sum1Row)
	MOVSS X1, (DI)

sumDone:
	MOVQ R11, ret+80(FP)
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+80(FP)
	RET

// func axpyRowsSSE2(o, data []float32, nrows int, rows []int32, coefs []float32) int
//
// o[j] = o[j] + coefs[i]·data[rows[i]·len(o)+j] for each i, in list order:
// one MULPS then one ADDPS per row (MULSS and ADDSS in the tail), each
// coefficient broadcast once per walk. Every lane rounds the product and
// then the sum exactly as the portable loop does. Returns and bounds as
// sumRowsSSE2; coefs must hold len(rows) elements.
TEXT ·axpyRowsSSE2(SB), NOSPLIT, $0-112
	PROLOGUE(axpyDone)
	MOVQ coefs_base+80(FP), R13
	LEAQ (R13)(R11*4), R13

axpy32:
	MOVQ $64, R12
	CMPQ CX, $32
	JHI  axpy32Walk // a whole panel, more to come
	CMPQ CX, $20
	JLS  axpy16
	LASTHALF(16)

axpy32Walk:
	UPPER
	LD4(DI, X0, X1, X2, X3)
	LD4(SI, X4, X5, X6, X7)
	FIRSTROW

	PCALIGN $32
axpy32Row:
	ROWPTR
	COEF
	AXPYV(R8, 0, X9, X0)
	AXPYV(R8, 16, X10, X1)
	AXPYV(R8, 32, X11, X2)
	AXPYV(R8, 48, X12, X3)
	AXPYV(R12, 0, X13, X4)
	AXPYV(R12, 16, X14, X5)
	AXPYV(R12, 32, X9, X6)
	AXPYV(R12, 48, X10, X7)
	NEXTROW(axpy32Row)
	ST4(DI, X0, X1, X2, X3)
	ST4(SI, X4, X5, X6, X7)
	CMPQ CX, $32
	JLS  axpyDone
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $32, CX
	JMP  axpy32

axpy16:
	MOVQ $32, R12
	CMPQ CX, $16
	JHI  axpy16Walk // 17-20 columns: a whole panel, then the rest
	CMPQ CX, $8
	JLS  axpy8
	LASTHALF(8)

axpy16Walk:
	UPPER
	LD2(DI, X0, X1)
	LD2(SI, X2, X3)
	FIRSTROW

	PCALIGN $32
axpy16Row:
	ROWPTR
	COEF
	AXPYV(R8, 0, X9, X0)
	AXPYV(R8, 16, X10, X1)
	AXPYV(R12, 0, X11, X2)
	AXPYV(R12, 16, X12, X3)
	NEXTROW(axpy16Row)
	ST2(DI, X0, X1)
	ST2(SI, X2, X3)
	CMPQ CX, $16
	JLS  axpyDone
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $16, CX

axpy8:
	CMPQ CX, $4
	JLS  axpy4
	LASTHALF(4)
	UPPER
	LD1(DI, X0)
	LD1(SI, X1)
	FIRSTROW

	PCALIGN $32
axpy8Row:
	ROWPTR
	COEF
	AXPYV(R8, 0, X9, X0)
	AXPYV(R12, 0, X10, X1)
	NEXTROW(axpy8Row)
	ST1(DI, X0)
	ST1(SI, X1)
	JMP axpyDone

axpy4:
	CMPQ CX, $4
	JCS  axpyTail
	LD1(DI, X0)
	FIRSTROW

	PCALIGN $32
axpy4Row:
	ROWPTR
	COEF
	AXPYV(R8, 0, X9, X0)
	NEXTROW(axpy4Row)
	ST1(DI, X0)
	JMP axpyDone

axpyTail:
	FIRSTROW
	CMPQ CX, $2
	JCS  axpy1
	JEQ  axpy2
	MOVQ  (DI), X0
	MOVSS 8(DI), X1

	PCALIGN $32
axpy3Row:
	ROWPTR
	COEF
	MOVQ  (R8)(AX*1), X9
	MULPS X8, X9
	ADDPS X9, X0
	MOVSS 8(R8)(AX*1), X10
	MULSS X8, X10
	ADDSS X10, X1
	NEXTROW(axpy3Row)
	MOVQ  X0, (DI)
	MOVSS X1, 8(DI)
	JMP   axpyDone

axpy2:
	MOVQ (DI), X0

	PCALIGN $32
axpy2Row:
	ROWPTR
	COEF
	MOVQ  (R8)(AX*1), X9
	MULPS X8, X9
	ADDPS X9, X0
	NEXTROW(axpy2Row)
	MOVQ X0, (DI)
	JMP  axpyDone

axpy1:
	MOVSS (DI), X1

	PCALIGN $32
axpy1Row:
	ROWPTR
	MOVSS (R13)(BX*4), X8
	MOVSS (R8)(AX*1), X9
	MULSS X8, X9
	ADDSS X9, X1
	NEXTROW(axpy1Row)
	MOVSS X1, (DI)

axpyDone:
	MOVQ R11, ret+104(FP)
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+104(FP)
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
