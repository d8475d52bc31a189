//go:build amd64 && !race

#include "textflag.h"

// SSE2 bodies of the five reduce-chain and GEMV kernels. Each one does
// the same arithmetic as its portable loop (sumRowsGeneric,
// axpyRowsGeneric, qsumRowsGeneric, qgemvRowsGeneric,
// qgemv8DenseGeneric), only several columns per instruction, and touches
// only the elements its Go caller hands it. Every loop head is aligned to
// 64 bytes (PCALIGN $64, which also aligns the function), so where a loop
// falls against the CPU's 64-byte fetch windows does not depend on the
// code linked before it.

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

// The prologue of the three row-sum kernels: DX is the row stride in
// bytes, len(o) shifted by shift, the log2 of the element size, and it
// returns len(rows) at once for an empty list or a zero width, where
// nothing is read.
#define PROLOGUE(done, shift) \
	MOVQ  o_base+0(FP), DI; \
	MOVQ  o_len+8(FP), CX; \
	MOVQ  data_base+24(FP), R8; \
	MOVQ  nrows+48(FP), R9; \
	MOVQ  rows_base+56(FP), R10; \
	MOVQ  rows_len+64(FP), R11; \
	LEAQ  (R10)(R11*4), R10; \
	MOVQ  CX, DX; \
	SHLQ  $shift, DX; \
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
	PROLOGUE(sumDone, 2)

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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
sum2Row:
	ROWPTR
	MOVQ  (R8)(AX*1), X9
	ADDPS X9, X0
	NEXTROW(sum2Row)
	MOVQ X0, (DI)
	JMP  sumDone

sum1:
	MOVSS (DI), X1

	PCALIGN $64
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
	PROLOGUE(axpyDone, 2)
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

// The two int8 kernels are output-stationary in the same way: each walks
// its row list once per panel of output columns and keeps the panel in
// XMM registers for the whole walk. Their sums are exact integers, so no
// panel width, block or lane order can change a result.
//
// QSPLIT adds the even and odd bytes of the 16 row bytes at off into the
// 16-bit lanes even and odd: PAND keeps the even bytes of each word, PSRLW
// $8 the odd ones.
#define QSPLIT(off, even, odd) \
	MOVOU off(R8)(AX*1), X10; \
	MOVO  X10, X11; \
	PAND  X8, X10; \
	PSRLW $8, X11; \
	PADDW X10, even; \
	PADDW X11, odd

// QBLOCK starts a block of at most chainBlockEdges rows at list position
// BX: R13 is the position where it ends, X14 holds 128 times its length in
// every int32 lane, and the lanes X0-X7 start from zero.
#define QBLOCK \
	MOVQ    BX, R13; \
	ADDQ    $256, R13; \
	XORL    R12, R12; \
	CMPQ    R13, R12; \
	CMOVQGT R12, R13; \
	MOVQ    R13, R12; \
	SUBQ    BX, R12; \
	SHLQ    $7, R12; \
	MOVQ    R12, X14; \
	PSHUFD  $0, X14, X14; \
	PXOR    X0, X0; \
	PXOR    X1, X1; \
	PXOR    X2, X2; \
	PXOR    X3, X3; \
	PXOR    X4, X4; \
	PXOR    X5, X5; \
	PXOR    X6, X6; \
	PXOR    X7, X7

// QNEXT advances the list position and loops while the block has rows.
#define QNEXT(loop) \
	INCQ BX; \
	CMPQ BX, R13; \
	JLT  loop

// QACC adds the four int32 columns of v, less the block's bias, into o at
// off.
#define QACC(off, v) \
	MOVOU off(DI), X12; \
	PADDL v, X12; \
	PSUBL X14, X12; \
	MOVOU X12, off(DI)

// QWIDEN8 widens one 8-column chunk's lanes, its even columns in the low
// four words of even and its odd ones in odd, into o at off: PUNPCKLWL of
// odd into even puts the eight words in column order, and PUNPCKLWL and
// PUNPCKHWL with the zero X9 extend them to int32.
#define QWIDEN8(off, even, odd) \
	PUNPCKLWL odd, even; \
	MOVO      even, X10; \
	PUNPCKLWL X9, even; \
	PUNPCKHWL X9, X10; \
	QACC(off, even); \
	QACC(off+16, X10)

// QWIDEN16 widens one 16-column chunk's lanes into o at off.
#define QWIDEN16(off, even, odd) \
	MOVO      even, X13; \
	PUNPCKHWL odd, X13; \
	QWIDEN8(off, even, odd); \
	MOVO      X13, X10; \
	PUNPCKLWL X9, X13; \
	PUNPCKHWL X9, X10; \
	QACC(off+32, X13); \
	QACC(off+48, X10)

// func qsumRowsSSE2(o []int32, data []byte, nrows int, rows []int32) int
//
// o[j] = o[j] + Σ (data[r·len(o)+j] − 128) over r in rows: the int8
// tier's reduce chain over biased bytes, in exact int32. len(o) must be a
// multiple of 8. Panels of 64 columns (eight lane registers) run while 64
// or more columns remain, then one walk each of 32, 16 and 8 columns as
// the rest needs. After every block of chainBlockEdges rows, and at the
// end of the list, the lanes widen into o less 128 per row of the block;
// a lane holds at most 256·255 < 2¹⁶. It returns len(rows), or the list
// position of the first index outside [0, nrows), whose row it never
// reads; the first panel's earlier blocks are then in o, and callers
// panic. data must hold nrows·len(o) bytes.
TEXT ·qsumRowsSSE2(SB), NOSPLIT, $0-88
	PROLOGUE(qsumDone, 0)
	MOVQ       $0x00FF00FF00FF00FF, AX
	MOVQ       AX, X8
	PUNPCKLQDQ X8, X8
	PXOR       X9, X9

qsum64:
	CMPQ CX, $64
	JCS  qsum32
	FIRSTROW

qsum64Block:
	QBLOCK

	PCALIGN $64
qsum64Row:
	ROWPTR
	QSPLIT(0, X0, X1)
	QSPLIT(16, X2, X3)
	QSPLIT(32, X4, X5)
	QSPLIT(48, X6, X7)
	QNEXT(qsum64Row)
	QWIDEN16(0, X0, X1)
	QWIDEN16(64, X2, X3)
	QWIDEN16(128, X4, X5)
	QWIDEN16(192, X6, X7)
	TESTQ BX, BX
	JNZ   qsum64Block
	ADDQ  $256, DI
	ADDQ  $64, R8
	SUBQ  $64, CX
	JMP   qsum64

qsum32:
	CMPQ CX, $32
	JCS  qsum16
	FIRSTROW

qsum32Block:
	QBLOCK

	PCALIGN $64
qsum32Row:
	ROWPTR
	QSPLIT(0, X0, X1)
	QSPLIT(16, X2, X3)
	QNEXT(qsum32Row)
	QWIDEN16(0, X0, X1)
	QWIDEN16(64, X2, X3)
	TESTQ BX, BX
	JNZ   qsum32Block
	ADDQ  $128, DI
	ADDQ  $32, R8
	SUBQ  $32, CX

qsum16:
	CMPQ CX, $16
	JCS  qsum8
	FIRSTROW

qsum16Block:
	QBLOCK

	PCALIGN $64
qsum16Row:
	ROWPTR
	QSPLIT(0, X0, X1)
	QNEXT(qsum16Row)
	QWIDEN16(0, X0, X1)
	TESTQ BX, BX
	JNZ   qsum16Block
	ADDQ  $64, DI
	ADDQ  $16, R8
	SUBQ  $16, CX

// 8 columns: MOVQ loads them into the low half, and the upper lanes stay
// zero.
qsum8:
	TESTQ CX, CX
	JZ    qsumDone
	FIRSTROW

qsum8Block:
	QBLOCK

	PCALIGN $64
qsum8Row:
	ROWPTR
	MOVQ  (R8)(AX*1), X10
	MOVO  X10, X11
	PAND  X8, X10
	PSRLW $8, X11
	PADDW X10, X0
	PADDW X11, X1
	QNEXT(qsum8Row)
	QWIDEN8(0, X0, X1)
	TESTQ BX, BX
	JNZ   qsum8Block

qsumDone:
	MOVQ R11, ret+80(FP)
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+80(FP)
	RET

// PAIR broadcasts the row's input pair, two int16s, into every int32 lane
// of X8.
#define PAIR \
	MOVL   (R13)(BX*4), X8; \
	PSHUFD $0, X8, X8

// QMAC16 adds the pair's products with eight columns of the row at off
// past base into lo (columns 0-3) and hi (4-7). The 16 weight bytes hold
// the two inputs' weights of each column side by side; PUNPCKLBW and
// PUNPCKHBW of a register with itself, then PSRAW $8, sign-extend them
// into int16, and PMADDWL sums each column's two products into an int32
// lane (|sum| ≤ 2·128·128, exact).
#define QMAC16(base, off, lo, hi) \
	MOVOU     off(base)(AX*1), X9; \
	MOVO      X9, X10; \
	PUNPCKLBW X9, X9; \
	PUNPCKHBW X10, X10; \
	PSRAW     $8, X9; \
	PSRAW     $8, X10; \
	PMADDWL   X8, X9; \
	PMADDWL   X8, X10; \
	PADDL     X9, lo; \
	PADDL     X10, hi

// QMAC8 is QMAC16 for the four columns of the 8 weight bytes at off past
// base.
#define QMAC8(base, off, acc) \
	MOVQ      off(base)(AX*1), X9; \
	PUNPCKLBW X9, X9; \
	PSRAW     $8, X9; \
	PMADDWL   X8, X9; \
	PADDL     X9, acc

// QMACW is QMAC8 for weight bytes already in the low half of X9.
#define QMACW(acc) \
	PUNPCKLBW X9, X9; \
	PSRAW     $8, X9; \
	PMADDWL   X8, X9; \
	PADDL     X9, acc

// QUPPER points SI at the panel's upper half of acc, and R12 at its
// weights, R12 columns in.
#define QUPPER \
	LEAQ (DI)(R12*4), SI; \
	LEAQ (R8)(R12*2), R12

// QLASTHALF sets R12 to the column offset of a half of cols columns that
// ends at column CX.
#define QLASTHALF(cols) \
	MOVQ CX, R12; \
	SUBQ $cols, R12

// func qgemvRowsSSE2(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int
//
// acc[j] = acc[j] + Σ_i x0·w[r·stride+2j] + x1·w[r·stride+2j+1] for
// r = rows[i] and the pair (x0, x1) packed in pairs[i] as two int16s: the
// int8 tier's weight GEMV over the non-zero input pairs of one activation
// row, in wrapping int32 arithmetic. Output panels follow sumRowsSSE2's
// cascade at 8 int32 columns per register pair: whole 32-column panels
// (eight accumulators) while more than 32 columns remain, then one walk of
// a 32-, 16-, 8- or 4-column panel whose halves may overlap, or of 1-3
// columns. The overlapping columns start from the same stored sums and
// add the same products, so both halves store the same values. Each pair
// is broadcast once per walk. Returns and checks indices as sumRowsSSE2,
// leaving acc as it was on a bad index; pairs must hold len(rows) elements
// and w must hold (nrows−1)·stride + 2·len(acc) bytes.
TEXT ·qgemvRowsSSE2(SB), NOSPLIT, $0-120
	MOVQ  acc_base+0(FP), DI
	MOVQ  acc_len+8(FP), CX
	MOVQ  w_base+24(FP), R8
	MOVQ  stride+48(FP), DX
	MOVQ  nrows+56(FP), R9
	MOVQ  rows_base+64(FP), R10
	MOVQ  rows_len+72(FP), R11
	MOVQ  pairs_base+88(FP), R13
	LEAQ  (R10)(R11*4), R10
	LEAQ  (R13)(R11*4), R13
	TESTQ R11, R11
	JZ    qgemvDone
	TESTQ CX, CX
	JZ    qgemvDone

qgemv32:
	MOVQ $16, R12
	CMPQ CX, $32
	JHI  qgemv32Walk // a whole panel, more to come
	CMPQ CX, $20
	JLS  qgemv16
	QLASTHALF(16)

qgemv32Walk:
	QUPPER
	LD4(DI, X0, X1, X2, X3)
	LD4(SI, X4, X5, X6, X7)
	FIRSTROW

	PCALIGN $64
qgemv32Row:
	ROWPTR
	PAIR
	QMAC16(R8, 0, X0, X1)
	QMAC16(R8, 16, X2, X3)
	QMAC16(R12, 0, X4, X5)
	QMAC16(R12, 16, X6, X7)
	NEXTROW(qgemv32Row)
	ST4(DI, X0, X1, X2, X3)
	ST4(SI, X4, X5, X6, X7)
	CMPQ CX, $32
	JLS  qgemvDone
	ADDQ $128, DI
	ADDQ $64, R8
	SUBQ $32, CX
	JMP  qgemv32

qgemv16:
	MOVQ $8, R12
	CMPQ CX, $16
	JHI  qgemv16Walk // 17-20 columns: a whole panel, then the rest
	CMPQ CX, $8
	JLS  qgemv8
	QLASTHALF(8)

qgemv16Walk:
	QUPPER
	LD2(DI, X0, X1)
	LD2(SI, X2, X3)
	FIRSTROW

	PCALIGN $64
qgemv16Row:
	ROWPTR
	PAIR
	QMAC16(R8, 0, X0, X1)
	QMAC16(R12, 0, X2, X3)
	NEXTROW(qgemv16Row)
	ST2(DI, X0, X1)
	ST2(SI, X2, X3)
	CMPQ CX, $16
	JLS  qgemvDone
	ADDQ $64, DI
	ADDQ $32, R8
	SUBQ $16, CX

qgemv8:
	CMPQ CX, $4
	JLS  qgemv4
	QLASTHALF(4)
	QUPPER
	LD1(DI, X0)
	LD1(SI, X1)
	FIRSTROW

	PCALIGN $64
qgemv8Row:
	ROWPTR
	PAIR
	QMAC8(R8, 0, X0)
	QMAC8(R12, 0, X1)
	NEXTROW(qgemv8Row)
	ST1(DI, X0)
	ST1(SI, X1)
	JMP qgemvDone

qgemv4:
	CMPQ CX, $4
	JCS  qgemvTail
	LD1(DI, X0)
	FIRSTROW

	PCALIGN $64
qgemv4Row:
	ROWPTR
	PAIR
	QMAC8(R8, 0, X0)
	NEXTROW(qgemv4Row)
	ST1(DI, X0)
	JMP qgemvDone

// 1-3 columns: their 2-6 weight bytes are loaded exactly (MOVL, PINSRW,
// MOVWLZX), so the zero upper lanes add nothing, and only the columns'
// lanes of X0 are stored.
qgemvTail:
	FIRSTROW
	CMPQ CX, $2
	JCS  qgemv1
	JEQ  qgemv2
	MOVQ       (DI), X0
	MOVL       8(DI), X11
	PUNPCKLQDQ X11, X0

	PCALIGN $64
qgemv3Row:
	ROWPTR
	PAIR
	MOVL   (R8)(AX*1), X9
	PINSRW $2, 4(R8)(AX*1), X9
	QMACW(X0)
	NEXTROW(qgemv3Row)
	MOVQ   X0, (DI)
	PSHUFD $2, X0, X0
	MOVL   X0, 8(DI)
	JMP    qgemvDone

qgemv2:
	MOVQ (DI), X0

	PCALIGN $64
qgemv2Row:
	ROWPTR
	PAIR
	MOVL (R8)(AX*1), X9
	QMACW(X0)
	NEXTROW(qgemv2Row)
	MOVQ X0, (DI)
	JMP  qgemvDone

qgemv1:
	MOVL (DI), X0

	PCALIGN $64
qgemv1Row:
	ROWPTR
	PAIR
	MOVWLZX (R8)(AX*1), R12
	MOVL    R12, X9
	QMACW(X0)
	NEXTROW(qgemv1Row)
	MOVL X0, (DI)

qgemvDone:
	MOVQ R11, ret+112(FP)
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+112(FP)
	RET

// func qgemv8DenseSSE2(acc []int32, w []int8, stride int, x []int8)
//
// acc[j] = acc[j] + Σ_p x[2p]·w[p·stride+2j] + x[2p+1]·w[p·stride+2j+1]
// over every pair p of x, for 4 ≤ len(acc) ≤ 8: qgemvRowsSSE2's
// 8-column walk over all of x's pairs in order, with no list and so no
// index to check. Each pair is read from x and sign-extended in place of
// the list's broadcast. len(x) must be even, and w must hold
// (len(x)/2−1)·stride + 2·len(acc) bytes.
TEXT ·qgemv8DenseSSE2(SB), NOSPLIT, $0-80
	MOVQ  acc_base+0(FP), DI
	MOVQ  acc_len+8(FP), CX
	MOVQ  w_base+24(FP), R8
	MOVQ  stride+48(FP), DX
	MOVQ  x_base+56(FP), R10
	MOVQ  x_len+64(FP), R11
	SHRQ  $1, R11
	JZ    denseDone
	QLASTHALF(4)
	QUPPER
	LD1(DI, X0)
	LD1(SI, X1)
	XORQ  AX, AX

	PCALIGN $64
denseRow:
	MOVWLZX   (R10), BX
	MOVL      BX, X8
	PUNPCKLBW X8, X8
	PSRAW     $8, X8
	PSHUFD    $0, X8, X8
	QMAC8(R8, 0, X0)
	QMAC8(R12, 0, X1)
	ADDQ      $2, R10
	ADDQ      DX, AX
	DECQ      R11
	JNZ       denseRow
	ST1(DI, X0)
	ST1(SI, X1)

denseDone:
	RET
