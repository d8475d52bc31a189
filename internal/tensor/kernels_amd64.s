//go:build amd64 && !race

#include "textflag.h"

// AVX2 bodies of the five reduce-chain and GEMV kernels, which
// kernels_amd64.go selects once at start-up. Each one does the same
// arithmetic as its portable loop (sumRowsGeneric, axpyRowsGeneric,
// qsumRowsGeneric, qgemvRowsGeneric, qgemv8DenseGeneric), only several
// columns per instruction, and touches only the elements its Go caller
// hands it. No multiply is ever fused into its add. Every loop head is
// aligned to 64 bytes (PCALIGN $64, which also aligns the function), so
// where a loop falls against the CPU's 64-byte fetch windows does not
// depend on the code linked before it. Every return runs VZEROUPPER first,
// so the SSE code the Go compiler emits never runs with dirty upper YMM
// halves.

// The two fp32 kernels are output-stationary: they walk a list of row
// indices once per panel of output columns and keep the panel in YMM
// registers for the whole list, so each output element is loaded and
// stored once per call. Whole 64-column panels (eight accumulators) run
// while more than 64 columns remain; the last r ≤ 64 columns then take one
// walk of the smallest panel that holds them: 64, 48, 32 or 16 columns, or
// one masked register for r ≤ 8. A panel is two halves, the upper one
// ending at column r, so when r is below the panel's width the halves
// overlap. The overlapping columns start from the same stored values in
// both halves and add the same rows in the same order, so both halves hold
// the same bits there and storing both is harmless. Every column still
// gets one rounded product (axpy form) and one rounded add per row, in
// list order, so neither the panel width nor the overlap changes a result
// bit.
//
// Registers in both kernels:
//   DI  output panel        SI  its upper half        CX  output columns left
//   R8  data + panel offset R12 its upper half        DX  row stride, bytes
//   R9  nrows               R10 end of rows           R11 len(rows)
//   BX  list position − len(rows), counting up to 0   AX  row byte offset
//   R13 end of coefs (axpy) Y0-Y7 accumulators        Y8  coefficient
//   Y9-Y14 products         Y10 the tail's lane mask
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

// ADDV adds eight row columns at off past base into acc.
#define ADDV(base, off, acc) VADDPS off(base)(AX*1), acc, acc

// AXPYV adds coefficient·row for eight columns at off past base: one
// VMULPS, then one VADDPS.
#define AXPYV(base, off, t, acc) \
	VMULPS off(base)(AX*1), Y8, t; \
	VADDPS t, acc, acc

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

#define LD1(p, a) VMOVUPS 0(p), a
#define LD2(p, a, b) LD1(p, a); VMOVUPS 32(p), b
#define LD3(p, a, b, c) LD2(p, a, b); VMOVUPS 64(p), c
#define LD4(p, a, b, c, d) LD3(p, a, b, c); VMOVUPS 96(p), d
#define ST1(p, a) VMOVUPS a, 0(p)
#define ST2(p, a, b) ST1(p, a); VMOVUPS b, 32(p)
#define ST3(p, a, b, c) ST2(p, a, b); VMOVUPS c, 64(p)
#define ST4(p, a, b, c, d) ST3(p, a, b, c); VMOVUPS d, 96(p)

// tailMask is eight all-ones dwords and then eight zero ones, so the eight
// dwords 4·(8−r) bytes in are the lane mask of an r-column tail.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// TAIL loads the mask of the CX ≤ 8 columns left into Y10, and those
// columns of the output into Y0. A masked load reads nothing, and so
// cannot fault, in its zero lanes.
#define TAIL \
	MOVQ       CX, AX; \
	SHLQ       $2, AX; \
	NEGQ       AX; \
	LEAQ       tailMask<>+32(SB), R12; \
	VMOVDQU    (R12)(AX*1), Y10; \
	VMASKMOVPS (DI), Y10, Y0

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

// func sumRowsAVX2(o, data []float32, nrows int, rows []int32) int
//
// o[j] = o[j] + data[r·len(o)+j] for each r in rows, in list order, summed
// left to right: one VADDPS per row, so every lane rounds exactly as the
// scalar loop does. It returns len(rows), or the list position of the
// first index outside [0, nrows), whose row it never reads: the first walk
// meets that index before anything is stored, so o is left as it was.
// data must hold nrows·len(o) elements.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-88
	PROLOGUE(sumDone, 2)

sum64:
	MOVQ $128, R12
	CMPQ CX, $64
	JHI  sum64Walk // a whole panel, more to come
	CMPQ CX, $48
	JLS  sum48
	LASTHALF(32)

sum64Walk:
	UPPER
	LD4(DI, Y0, Y1, Y2, Y3)
	LD4(SI, Y4, Y5, Y6, Y7)
	FIRSTROW

	PCALIGN $64
sum64Row:
	ROWPTR
	ADDV(R8, 0, Y0)
	ADDV(R8, 32, Y1)
	ADDV(R8, 64, Y2)
	ADDV(R8, 96, Y3)
	ADDV(R12, 0, Y4)
	ADDV(R12, 32, Y5)
	ADDV(R12, 64, Y6)
	ADDV(R12, 96, Y7)
	NEXTROW(sum64Row)
	ST4(DI, Y0, Y1, Y2, Y3)
	ST4(SI, Y4, Y5, Y6, Y7)
	CMPQ CX, $64
	JLS  sumDone
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $64, CX
	JMP  sum64

sum48:
	CMPQ CX, $32
	JLS  sum32
	LASTHALF(24)
	UPPER
	LD3(DI, Y0, Y1, Y2)
	LD3(SI, Y3, Y4, Y5)
	FIRSTROW

	PCALIGN $64
sum48Row:
	ROWPTR
	ADDV(R8, 0, Y0)
	ADDV(R8, 32, Y1)
	ADDV(R8, 64, Y2)
	ADDV(R12, 0, Y3)
	ADDV(R12, 32, Y4)
	ADDV(R12, 64, Y5)
	NEXTROW(sum48Row)
	ST3(DI, Y0, Y1, Y2)
	ST3(SI, Y3, Y4, Y5)
	JMP sumDone

sum32:
	CMPQ CX, $16
	JLS  sum16
	LASTHALF(16)
	UPPER
	LD2(DI, Y0, Y1)
	LD2(SI, Y2, Y3)
	FIRSTROW

	PCALIGN $64
sum32Row:
	ROWPTR
	ADDV(R8, 0, Y0)
	ADDV(R8, 32, Y1)
	ADDV(R12, 0, Y2)
	ADDV(R12, 32, Y3)
	NEXTROW(sum32Row)
	ST2(DI, Y0, Y1)
	ST2(SI, Y2, Y3)
	JMP sumDone

sum16:
	CMPQ CX, $8
	JLS  sumTail
	LASTHALF(8)
	UPPER
	LD1(DI, Y0)
	LD1(SI, Y1)
	FIRSTROW

	PCALIGN $64
sum16Row:
	ROWPTR
	ADDV(R8, 0, Y0)
	ADDV(R12, 0, Y1)
	NEXTROW(sum16Row)
	ST1(DI, Y0)
	ST1(SI, Y1)
	JMP sumDone

sumTail:
	TAIL
	FIRSTROW

	PCALIGN $64
sum8Row:
	ROWPTR
	VMASKMOVPS (R8)(AX*1), Y10, Y9
	VADDPS     Y9, Y0, Y0
	NEXTROW(sum8Row)
	VMASKMOVPS Y0, Y10, (DI)

sumDone:
	MOVQ R11, ret+80(FP)
	VZEROUPPER
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// func axpyRowsAVX2(o, data []float32, nrows int, rows []int32, coefs []float32) int
//
// o[j] = o[j] + coefs[i]·data[rows[i]·len(o)+j] for each i, in list order:
// one VMULPS then one VADDPS per row, each coefficient broadcast once per
// walk. Every lane rounds the product and then the sum exactly as the
// portable loop does. Returns and bounds as sumRowsAVX2; coefs must hold
// len(rows) elements.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-112
	PROLOGUE(axpyDone, 2)
	MOVQ coefs_base+80(FP), R13
	LEAQ (R13)(R11*4), R13

axpy64:
	MOVQ $128, R12
	CMPQ CX, $64
	JHI  axpy64Walk // a whole panel, more to come
	CMPQ CX, $48
	JLS  axpy48
	LASTHALF(32)

axpy64Walk:
	UPPER
	LD4(DI, Y0, Y1, Y2, Y3)
	LD4(SI, Y4, Y5, Y6, Y7)
	FIRSTROW

	PCALIGN $64
axpy64Row:
	ROWPTR
	VBROADCASTSS (R13)(BX*4), Y8
	AXPYV(R8, 0, Y9, Y0)
	AXPYV(R8, 32, Y10, Y1)
	AXPYV(R8, 64, Y11, Y2)
	AXPYV(R8, 96, Y12, Y3)
	AXPYV(R12, 0, Y13, Y4)
	AXPYV(R12, 32, Y14, Y5)
	AXPYV(R12, 64, Y9, Y6)
	AXPYV(R12, 96, Y10, Y7)
	NEXTROW(axpy64Row)
	ST4(DI, Y0, Y1, Y2, Y3)
	ST4(SI, Y4, Y5, Y6, Y7)
	CMPQ CX, $64
	JLS  axpyDone
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $64, CX
	JMP  axpy64

axpy48:
	CMPQ CX, $32
	JLS  axpy32
	LASTHALF(24)
	UPPER
	LD3(DI, Y0, Y1, Y2)
	LD3(SI, Y3, Y4, Y5)
	FIRSTROW

	PCALIGN $64
axpy48Row:
	ROWPTR
	VBROADCASTSS (R13)(BX*4), Y8
	AXPYV(R8, 0, Y9, Y0)
	AXPYV(R8, 32, Y10, Y1)
	AXPYV(R8, 64, Y11, Y2)
	AXPYV(R12, 0, Y12, Y3)
	AXPYV(R12, 32, Y13, Y4)
	AXPYV(R12, 64, Y14, Y5)
	NEXTROW(axpy48Row)
	ST3(DI, Y0, Y1, Y2)
	ST3(SI, Y3, Y4, Y5)
	JMP axpyDone

axpy32:
	CMPQ CX, $16
	JLS  axpy16
	LASTHALF(16)
	UPPER
	LD2(DI, Y0, Y1)
	LD2(SI, Y2, Y3)
	FIRSTROW

	PCALIGN $64
axpy32Row:
	ROWPTR
	VBROADCASTSS (R13)(BX*4), Y8
	AXPYV(R8, 0, Y9, Y0)
	AXPYV(R8, 32, Y10, Y1)
	AXPYV(R12, 0, Y11, Y2)
	AXPYV(R12, 32, Y12, Y3)
	NEXTROW(axpy32Row)
	ST2(DI, Y0, Y1)
	ST2(SI, Y2, Y3)
	JMP axpyDone

axpy16:
	CMPQ CX, $8
	JLS  axpyTail
	LASTHALF(8)
	UPPER
	LD1(DI, Y0)
	LD1(SI, Y1)
	FIRSTROW

	PCALIGN $64
axpy16Row:
	ROWPTR
	VBROADCASTSS (R13)(BX*4), Y8
	AXPYV(R8, 0, Y9, Y0)
	AXPYV(R12, 0, Y11, Y1)
	NEXTROW(axpy16Row)
	ST1(DI, Y0)
	ST1(SI, Y1)
	JMP axpyDone

// The masked-off lanes multiply zeros, which may give NaN (∞·0) but are
// never stored.
axpyTail:
	TAIL
	FIRSTROW

	PCALIGN $64
axpy8Row:
	ROWPTR
	VBROADCASTSS (R13)(BX*4), Y8
	VMASKMOVPS   (R8)(AX*1), Y10, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y0
	NEXTROW(axpy8Row)
	VMASKMOVPS Y0, Y10, (DI)

axpyDone:
	MOVQ R11, ret+104(FP)
	VZEROUPPER
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+104(FP)
	VZEROUPPER
	RET

// The two int8 kernels are output-stationary in the same way: each walks
// its row list once per panel of output columns and keeps the panel in
// YMM registers for the whole walk. Their sums are exact integers, so no
// panel width, block or lane order can change a result.
//
// QSPLIT adds the even and odd bytes of the row bytes at off, loaded into
// t by load (a 32-, 16- or 8-byte move), into the 16-bit lanes even and
// odd: VPAND with the 0x00FF words in m (Y8, or its low half X8) keeps the
// even bytes of each word, VPSRLW $8 the odd ones.
#define QSPLIT(load, off, m, t, u, even, odd) \
	load   off(R8)(AX*1), t; \
	VPSRLW $8, t, u; \
	VPAND  m, t, t; \
	VPADDW t, even, even; \
	VPADDW u, odd, odd

// QBLOCK starts a block of at most chainBlockEdges rows at list position
// BX: R13 is the position where it ends, Y14 holds 128 times its length in
// every int32 lane, and the lanes Y0-Y3 start from zero.
#define QBLOCK \
	MOVQ         BX, R13; \
	ADDQ         $256, R13; \
	XORL         R12, R12; \
	CMPQ         R13, R12; \
	CMOVQGT      R12, R13; \
	MOVQ         R13, R12; \
	SUBQ         BX, R12; \
	SHLQ         $7, R12; \
	VMOVQ        R12, X14; \
	VPBROADCASTD X14, Y14; \
	VPXOR        Y0, Y0, Y0; \
	VPXOR        Y1, Y1, Y1; \
	VPXOR        Y2, Y2, Y2; \
	VPXOR        Y3, Y3, Y3

// QNEXT advances the list position and loops while the block has rows.
#define QNEXT(loop) \
	INCQ BX; \
	CMPQ BX, R13; \
	JLT  loop

// QACC zero-extends the eight 16-bit sums of consecutive columns in w into
// int32 and adds them, less the block's bias, into o at off.
#define QACC(off, w) \
	VPMOVZXWD w, Y12; \
	VPADDD    off(DI), Y12, Y12; \
	VPSUBD    Y14, Y12, Y12; \
	VMOVDQU   Y12, off(DI)

// QWIDEN16 widens the lanes of one 16-column chunk, its even columns in
// the words of even and its odd ones in odd, into o at off: VPUNPCKLWD and
// VPUNPCKHWD of odd into even put the words in column order.
#define QWIDEN16(off, even, odd) \
	VPUNPCKLWD odd, even, X10; \
	VPUNPCKHWD odd, even, X11; \
	QACC(off, X10); \
	QACC(off+32, X11)

// QWIDEN32 is QWIDEN16 for a 32-column chunk in YMM lanes, whose unpacks
// work within each 128-bit half: the low halves of Y10 and Y11 hold columns
// 0-7 and 8-15, their high halves 16-23 and 24-31.
#define QWIDEN32(off, even, odd) \
	VPUNPCKLWD   odd, even, Y10; \
	VPUNPCKHWD   odd, even, Y11; \
	QACC(off, X10); \
	QACC(off+32, X11); \
	VEXTRACTI128 $1, Y10, X10; \
	VEXTRACTI128 $1, Y11, X11; \
	QACC(off+64, X10); \
	QACC(off+96, X11)

// QPANEL ends a walk of cols columns: it loops to the next block while
// rows remain, then moves DI, R8 and CX past the panel.
#define QPANEL(block, cols) \
	TESTQ BX, BX; \
	JNZ   block; \
	ADDQ  $(4*cols), DI; \
	ADDQ  $cols, R8; \
	SUBQ  $cols, CX

// func qsumRowsAVX2(o []int32, data []byte, nrows int, rows []int32) int
//
// o[j] = o[j] + Σ (data[r·len(o)+j] − 128) over r in rows: the int8
// tier's reduce chain over biased bytes, in exact int32. len(o) must be a
// multiple of 8. Panels of 64 columns (four lane registers) run while 64
// or more columns remain, then one walk each of 48, 32, 16 and 8 columns
// as the rest needs. After every block of chainBlockEdges rows, and at the
// end of the list, the lanes widen into o less 128 per row of the block;
// a lane holds at most 256·255 < 2¹⁶. It returns len(rows), or the list
// position of the first index outside [0, nrows), whose row it never
// reads; the first panel's earlier blocks are then in o, and callers
// panic. data must hold nrows·len(o) bytes.
TEXT ·qsumRowsAVX2(SB), NOSPLIT, $0-88
	PROLOGUE(qsumDone, 0)
	MOVQ         $0x00FF00FF00FF00FF, AX
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8

qsum64:
	CMPQ CX, $64
	JCS  qsum48
	FIRSTROW

qsum64Block:
	QBLOCK

	PCALIGN $64
qsum64Row:
	ROWPTR
	QSPLIT(VMOVDQU, 0, Y8, Y10, Y11, Y0, Y1)
	QSPLIT(VMOVDQU, 32, Y8, Y12, Y13, Y2, Y3)
	QNEXT(qsum64Row)
	QWIDEN32(0, Y0, Y1)
	QWIDEN32(128, Y2, Y3)
	QPANEL(qsum64Block, 64)
	JMP qsum64

qsum48:
	CMPQ CX, $48
	JCS  qsum32
	FIRSTROW

qsum48Block:
	QBLOCK

	PCALIGN $64
qsum48Row:
	ROWPTR
	QSPLIT(VMOVDQU, 0, Y8, Y10, Y11, Y0, Y1)
	QSPLIT(VMOVDQU, 32, X8, X12, X13, X2, X3)
	QNEXT(qsum48Row)
	QWIDEN32(0, Y0, Y1)
	QWIDEN16(128, X2, X3)
	QPANEL(qsum48Block, 48)

qsum32:
	CMPQ CX, $32
	JCS  qsum16
	FIRSTROW

qsum32Block:
	QBLOCK

	PCALIGN $64
qsum32Row:
	ROWPTR
	QSPLIT(VMOVDQU, 0, Y8, Y10, Y11, Y0, Y1)
	QNEXT(qsum32Row)
	QWIDEN32(0, Y0, Y1)
	QPANEL(qsum32Block, 32)

qsum16:
	CMPQ CX, $16
	JCS  qsum8
	FIRSTROW

qsum16Block:
	QBLOCK

	PCALIGN $64
qsum16Row:
	ROWPTR
	QSPLIT(VMOVDQU, 0, X8, X10, X11, X0, X1)
	QNEXT(qsum16Row)
	QWIDEN16(0, X0, X1)
	QPANEL(qsum16Block, 16)

// 8 columns: VMOVQ loads them into the low half, and the upper lanes stay
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
	QSPLIT(VMOVQ, 0, X8, X10, X11, X0, X1)
	QNEXT(qsum8Row)
	VPUNPCKLWD X1, X0, X10
	QACC(0, X10)
	TESTQ      BX, BX
	JNZ        qsum8Block

qsumDone:
	MOVQ R11, ret+80(FP)
	VZEROUPPER
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// QMAC adds the broadcast pair p's products with the columns whose weight
// bytes sit at off past base into acc: VPMOVSXBW sign-extends the bytes,
// which hold the two inputs' weights of each column side by side, into
// int16, and VPMADDWD sums each column's two products into an int32 lane
// (|sum| ≤ 2·128·128, exact). QMAC8 reads 16 bytes, eight columns of a YMM
// accumulator; QMAC4 reads 8 bytes, four columns of an XMM one.
#define QMAC(p, base, off, t, acc) \
	VPMOVSXBW off(base)(AX*1), t; \
	VPMADDWD  p, t, t; \
	VPADDD    t, acc, acc

#define QMAC8(base, off, t, acc) QMAC(Y8, base, off, t, acc)
#define QMAC4(base, off, t, acc) QMAC(X8, base, off, t, acc)

// QMACX is QMAC for the weight bytes already in the low bytes of X9.
#define QMACX(acc) \
	VPMOVSXBW X9, X9; \
	VPMADDWD  X8, X9, X9; \
	VPADDD    X9, acc, acc

// PAIR broadcasts the row's input pair, two int16s, into every int32 lane
// of Y8.
#define PAIR VPBROADCASTD (R13)(BX*4), Y8

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

// func qgemvRowsAVX2(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int
//
// acc[j] = acc[j] + Σ_i x0·w[r·stride+2j] + x1·w[r·stride+2j+1] for
// r = rows[i] and the pair (x0, x1) packed in pairs[i] as two int16s: the
// int8 tier's weight GEMV over the non-zero input pairs of one activation
// row, in wrapping int32 arithmetic. Output panels follow sumRowsAVX2's
// cascade down to 16 columns; r ≤ 8 columns then take one walk of two
// overlapping halves of 4, 2 or 1 columns in XMM registers, whose weight
// bytes are loaded exactly. The overlapping columns start from the same
// stored sums and add the same products, so both halves store the same
// values. Each pair is broadcast once per walk. Returns and checks indices
// as sumRowsAVX2, leaving acc as it was on a bad index; pairs must hold
// len(rows) elements and w must hold (nrows−1)·stride + 2·len(acc) bytes.
TEXT ·qgemvRowsAVX2(SB), NOSPLIT, $0-120
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

qgemv64:
	MOVQ $32, R12
	CMPQ CX, $64
	JHI  qgemv64Walk // a whole panel, more to come
	CMPQ CX, $48
	JLS  qgemv48
	QLASTHALF(32)

qgemv64Walk:
	QUPPER
	LD4(DI, Y0, Y1, Y2, Y3)
	LD4(SI, Y4, Y5, Y6, Y7)
	FIRSTROW

	PCALIGN $64
qgemv64Row:
	ROWPTR
	PAIR
	QMAC8(R8, 0, Y9, Y0)
	QMAC8(R8, 16, Y10, Y1)
	QMAC8(R8, 32, Y11, Y2)
	QMAC8(R8, 48, Y12, Y3)
	QMAC8(R12, 0, Y13, Y4)
	QMAC8(R12, 16, Y14, Y5)
	QMAC8(R12, 32, Y9, Y6)
	QMAC8(R12, 48, Y10, Y7)
	NEXTROW(qgemv64Row)
	ST4(DI, Y0, Y1, Y2, Y3)
	ST4(SI, Y4, Y5, Y6, Y7)
	CMPQ CX, $64
	JLS  qgemvDone
	ADDQ $256, DI
	ADDQ $128, R8
	SUBQ $64, CX
	JMP  qgemv64

qgemv48:
	CMPQ CX, $32
	JLS  qgemv32
	QLASTHALF(24)
	QUPPER
	LD3(DI, Y0, Y1, Y2)
	LD3(SI, Y3, Y4, Y5)
	FIRSTROW

	PCALIGN $64
qgemv48Row:
	ROWPTR
	PAIR
	QMAC8(R8, 0, Y9, Y0)
	QMAC8(R8, 16, Y10, Y1)
	QMAC8(R8, 32, Y11, Y2)
	QMAC8(R12, 0, Y12, Y3)
	QMAC8(R12, 16, Y13, Y4)
	QMAC8(R12, 32, Y14, Y5)
	NEXTROW(qgemv48Row)
	ST3(DI, Y0, Y1, Y2)
	ST3(SI, Y3, Y4, Y5)
	JMP qgemvDone

qgemv32:
	CMPQ CX, $16
	JLS  qgemv16
	QLASTHALF(16)
	QUPPER
	LD2(DI, Y0, Y1)
	LD2(SI, Y2, Y3)
	FIRSTROW

	PCALIGN $64
qgemv32Row:
	ROWPTR
	PAIR
	QMAC8(R8, 0, Y9, Y0)
	QMAC8(R8, 16, Y10, Y1)
	QMAC8(R12, 0, Y11, Y2)
	QMAC8(R12, 16, Y12, Y3)
	NEXTROW(qgemv32Row)
	ST2(DI, Y0, Y1)
	ST2(SI, Y2, Y3)
	JMP qgemvDone

qgemv16:
	CMPQ CX, $8
	JLS  qgemv8
	QLASTHALF(8)
	QUPPER
	LD1(DI, Y0)
	LD1(SI, Y1)
	FIRSTROW

	PCALIGN $64
qgemv16Row:
	ROWPTR
	PAIR
	QMAC8(R8, 0, Y9, Y0)
	QMAC8(R12, 0, Y10, Y1)
	NEXTROW(qgemv16Row)
	ST1(DI, Y0)
	ST1(SI, Y1)
	JMP qgemvDone

qgemv8:
	CMPQ CX, $4
	JCS  qgemv4
	QLASTHALF(4)
	QUPPER
	VMOVDQU (DI), X0
	VMOVDQU (SI), X1
	FIRSTROW

	PCALIGN $64
qgemv8Row:
	ROWPTR
	PAIR
	QMAC4(R8, 0, X9, X0)
	QMAC4(R12, 0, X10, X1)
	NEXTROW(qgemv8Row)
	VMOVDQU X0, (DI)
	VMOVDQU X1, (SI)
	JMP     qgemvDone

// 2-3 columns: halves of two, whose 4 weight bytes VMOVD loads.
qgemv4:
	CMPQ CX, $2
	JCS  qgemv1
	QLASTHALF(2)
	QUPPER
	VMOVQ (DI), X0
	VMOVQ (SI), X1
	FIRSTROW

	PCALIGN $64
qgemv4Row:
	ROWPTR
	PAIR
	VMOVD (R8)(AX*1), X9
	QMACX(X0)
	VMOVD (R12)(AX*1), X9
	QMACX(X1)
	NEXTROW(qgemv4Row)
	VMOVQ X0, (DI)
	VMOVQ X1, (SI)
	JMP   qgemvDone

// 1 column: its 2 weight bytes go through R12.
qgemv1:
	VMOVD (DI), X0
	FIRSTROW

	PCALIGN $64
qgemv1Row:
	ROWPTR
	PAIR
	MOVWLZX (R8)(AX*1), R12
	VMOVD   R12, X9
	QMACX(X0)
	NEXTROW(qgemv1Row)
	VMOVD X0, (DI)

qgemvDone:
	MOVQ R11, ret+112(FP)
	VZEROUPPER
	RET

bad:
	ADDQ R11, BX
	MOVQ BX, ret+112(FP)
	VZEROUPPER
	RET

// func qgemv8DenseAVX2(acc []int32, w []int8, stride int, x []int8)
//
// acc[j] = acc[j] + Σ_p x[2p]·w[p·stride+2j] + x[2p+1]·w[p·stride+2j+1]
// over every pair p of x, for 4 ≤ len(acc) ≤ 8: qgemvRowsAVX2's 8-column
// walk over all of x's pairs in order, with no list and so no index to
// check. Each pair is read from x and sign-extended in place of the list's
// broadcast. len(x) must be even, and w must hold
// (len(x)/2−1)·stride + 2·len(acc) bytes.
TEXT ·qgemv8DenseAVX2(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ w_base+24(FP), R8
	MOVQ stride+48(FP), DX
	MOVQ x_base+56(FP), R10
	MOVQ x_len+64(FP), R11
	SHRQ $1, R11
	JZ   denseDone
	QLASTHALF(4)
	QUPPER
	VMOVDQU (DI), X0
	VMOVDQU (SI), X1
	XORQ    AX, AX

	PCALIGN $64
denseRow:
	MOVWLZX      (R10), BX
	VMOVD        BX, X8
	VPMOVSXBW    X8, X8
	VPBROADCASTD X8, X8
	QMAC4(R8, 0, X9, X0)
	QMAC4(R12, 0, X10, X1)
	ADDQ         $2, R10
	ADDQ         DX, AX
	DECQ         R11
	JNZ          denseRow
	VMOVDQU      X0, (DI)
	VMOVDQU      X1, (SI)

denseDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
//
// The low half of XCR0, the register states the OS saves.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
