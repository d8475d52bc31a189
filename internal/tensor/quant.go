package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite marks quantization inputs containing NaN or ±Inf. Graph
// loaders reject non-finite features at the parse boundary; this sentinel
// guards the remaining paths (programmatic inputs, intermediate activations)
// so a poisoned row can never silently quantize to garbage.
var ErrNonFinite = errors.New("tensor: non-finite value")

// QMatrix is a row-major int8 matrix with one float32 dequantization scale
// per row: element (i, j) represents Scales[i]·Data[i·Cols+j]. Quantization
// is symmetric per-row max-abs (the per-vector scheme hardware int8 pipelines
// use): row i's scale is maxabs(row)/127, so every representable value round
// trips within half a quantization step.
//
// Weight matrices are stored transposed (one QMatrix row per output column)
// so the int8 GEMM/GEMV inner loops walk both operands stride-1 — see
// ParallelQMatMulInto.
type QMatrix struct {
	Rows, Cols int
	Data       []int8    // len == Rows*Cols
	Scales     []float32 // len == Rows; dequantization scale per row
}

// NewQMatrix returns a zeroed Rows×Cols quantized matrix.
func NewQMatrix(rows, cols int) *QMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &QMatrix{
		Rows: rows, Cols: cols,
		Data:   make([]int8, rows*cols),
		Scales: make([]float32, rows),
	}
}

// Row returns a mutable view of row i.
func (q *QMatrix) Row(i int) []int8 {
	return q.Data[i*q.Cols : (i+1)*q.Cols]
}

// String renders a compact shape descriptor (not the contents).
func (q *QMatrix) String() string {
	return fmt.Sprintf("QMatrix(%dx%d)", q.Rows, q.Cols)
}

// QuantizeRowInto quantizes one float32 row into q (equal length) and
// returns the dequantization scale: q[j]·scale ≈ row[j] with absolute error
// at most scale/2. An all-zero row quantizes to scale 0. Rows containing NaN
// or ±Inf return ErrNonFinite and leave q unspecified.
func QuantizeRowInto(q []int8, row []float32) (float32, error) {
	if len(q) != len(row) {
		panic(fmt.Sprintf("tensor: quantize row %d into %d", len(row), len(q)))
	}
	var maxAbs float32
	for _, v := range row {
		if v != v { // NaN never wins a > comparison, so test it directly
			return 0, ErrNonFinite
		}
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if math.IsInf(float64(maxAbs), 0) {
		return 0, ErrNonFinite
	}
	if maxAbs == 0 {
		for j := range q {
			q[j] = 0
		}
		return 0, nil
	}
	scale := maxAbs / 127
	quantizeRowApply(q, row, 127/maxAbs)
	return scale, nil
}

// quantizeRowApply writes q[j] = round(row[j]·inv) (half away from zero).
// The caller guarantees |row[j]·inv| ≤ 127 up to a few ulps and that row is
// finite. The rounding is branchless — copysign(0.5, r) via bit ops, then
// truncation — because this loop quantizes every activation row on the int8
// hot path and a float64 math.Round round trip dominated the update kernels
// (a truncating convert cannot overflow int8: |r|+0.5 < 128 for every
// reachable r).
func quantizeRowApply(q []int8, row []float32, inv float32) {
	const signMask, halfBits = 0x80000000, 0x3F000000 // sign bit, float32(0.5)
	q = q[:len(row)]
	for j, v := range row {
		r := v * inv
		half := math.Float32frombits(math.Float32bits(r)&signMask | halfBits)
		q[j] = int8(int32(r + half))
	}
}

// QuantizeInto quantizes m into q row by row (symmetric per-row max-abs
// scales). q must be m.Rows × m.Cols. Returns ErrNonFinite (wrapped with the
// row index) if any element is NaN or ±Inf.
func QuantizeInto(q *QMatrix, m *Matrix) error {
	if q.Rows != m.Rows || q.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: quantize %dx%d into %dx%d", m.Rows, m.Cols, q.Rows, q.Cols))
	}
	rows := m.Rows
	scales := q.Scales[:rows]
	for i := 0; i < rows; i++ {
		s, err := QuantizeRowInto(q.Row(i), m.Row(i))
		if err != nil {
			return fmt.Errorf("tensor: row %d: %w", i, err)
		}
		scales[i] = s
	}
	return nil
}

// Quantize returns m quantized to per-row int8. Allocating wrapper over
// QuantizeInto.
func Quantize(m *Matrix) (*QMatrix, error) {
	q := NewQMatrix(m.Rows, m.Cols)
	if err := QuantizeInto(q, m); err != nil {
		return nil, err
	}
	return q, nil
}

// QuantizeTransposed quantizes mᵀ: the result has one row — and one scale —
// per column of m. This is the weight layout of the int8 tier: with the
// matrix transposed, ParallelQMatMulInto and QGemvInto walk the weight
// operand stride-1 alongside the activation row.
func QuantizeTransposed(m *Matrix) (*QMatrix, error) {
	return Quantize(m.T())
}

// qgemmBlockJ is the bT-row panel the blocked int8 GEMM keeps hot: 32 rows
// of the transposed weight operand (32·K int8 elements, within L1 for the
// feature widths the models use) are reused across a sweep of activation
// rows before the next panel streams in.
const qgemmBlockJ = 32

// ParallelQMatMulInto computes the int8 GEMM out = a·bᵀ with int32
// accumulation, dequantizing at the output boundary: out[i][j] =
// a.Scales[i] · bT.Scales[j] · Σ_k a[i][k]·bT[j][k], with output rows fanned
// across up to `workers` goroutines. bT is the transposed quantized right
// operand (see QuantizeTransposed), so the inner dot product walks both
// operands stride-1. out must be a.Rows × bT.Rows; the inner dimensions
// must agree.
//
// Accumulation is int32 because it is exact: 602-wide rows of products
// bounded by 127² sum to at most ~9.8M, far inside int32, so blocking,
// unrolling and the split into disjoint row ranges cannot change the
// result — integer addition is associative. The only roundings are the two
// per-row quantizations and the final float32 scale multiply.
func ParallelQMatMulInto(out *Matrix, a, bT *QMatrix, workers int) {
	if a.Cols != bT.Cols {
		panic(fmt.Sprintf("tensor: qmatmul %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bT.Rows, bT.Cols))
	}
	if out.Rows != a.Rows || out.Cols != bT.Rows {
		panic(fmt.Sprintf("tensor: qmatmul out %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, bT.Rows))
	}
	ParallelRows(a.Rows, workers, func(_, lo, hi int) {
		qMatMulRowsInto(out, a, bT, lo, hi)
	})
}

// qMatMulRowsInto computes rows [lo, hi) of the int8 GEMM: bT rows are
// processed in qgemmBlockJ panels so the panel stays cache-resident across
// the activation-row sweep.
func qMatMulRowsInto(out *Matrix, a, bT *QMatrix, lo, hi int) {
	for jb := 0; jb < bT.Rows; jb += qgemmBlockJ {
		jend := jb + qgemmBlockJ
		if jend > bT.Rows {
			jend = bT.Rows
		}
		ascales := a.Scales[lo:hi]
		for ii, sa := range ascales {
			i := lo + ii
			arow := a.Row(i)
			orow := out.Row(i)[jb:jend]
			scales := bT.Scales[jb:jend]
			for jj := range orow {
				j := jb + jj
				orow[jj] = sa * scales[jj] * float32(dotInt8(arow, bT.Row(j)))
			}
		}
	}
}

// QGemvInto computes the int8 GEMV out = x·wᵀ: out[j] = sx · wT.Scales[j] ·
// Σ_k qx[k]·wT[j][k], where qx is a quantized activation row with scale sx
// (see QuantizeRowInto) and wT the transposed quantized weight matrix. This
// is the per-vertex update kernel of the quantized tier: int32 accumulation,
// one dequantizing multiply per output element.
func QGemvInto(out []float32, qx []int8, sx float32, wT *QMatrix) {
	if wT.Cols != len(qx) {
		panic(fmt.Sprintf("tensor: qgemv %d · (%dx%d)ᵀ", len(qx), wT.Rows, wT.Cols))
	}
	if len(out) != wT.Rows {
		panic(fmt.Sprintf("tensor: qgemv out %d, want %d", len(out), wT.Rows))
	}
	scales := wT.Scales[:len(out)]
	for j := range out {
		out[j] = sx * scales[j] * float32(dotInt8(qx, wT.Row(j)))
	}
}

// dotInt8Generic is the portable body of dotInt8, the int32 inner product of
// equal-length int8 vectors, 4-way unrolled in the bounds-check-free
// slice-advance form (see tensor.axpyRow). Four independent accumulators
// break the add dependency chain; that reassociation is exact because
// integer addition is associative, and for the same reason the amd64 SSE2
// version (kernels_amd64.s) returns the same int32.
func dotInt8Generic(a, b []int8) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	for len(a) >= 4 && len(b) >= 4 {
		s0 += int32(a[0]) * int32(b[0])
		s1 += int32(a[1]) * int32(b[1])
		s2 += int32(a[2]) * int32(b[2])
		s3 += int32(a[3]) * int32(b[3])
		a = a[4:]
		b = b[4:]
	}
	b = b[:len(a)]
	for j, av := range a {
		s0 += int32(av) * int32(b[j])
	}
	return s0 + s1 + s2 + s3
}

// QSumMatrix is the shared-scale aggregation operand of the int8 tier: a
// row-major byte matrix storing BIASED quantized values b = q+128 (so b is a
// plain unsigned byte) under ONE dequantization scale for the whole matrix —
// element (i, j) represents Scale·(Data[i·Stride+j]−128). Rows are padded to
// a Stride that is a multiple of 8 with the bias byte 128 (quantized zero),
// which lets the reduce-chain kernels (QChain) sum eight columns per
// 64-bit add with no tail loop.
//
// The shared scale is what makes integer reduce chains possible: per-row
// scales (QMatrix) would force a dequantizing multiply at every hop, while a
// shared scale defers the single multiply to the end of the chain.
type QSumMatrix struct {
	Rows, Cols int
	Stride     int     // row stride in bytes: Cols rounded up to 8
	Data       []byte  // len == Rows*Stride; biased values q+128
	Scale      float32 // shared dequantization scale
}

// NewQSumMatrix returns a Rows×Cols matrix with padding bytes at the bias;
// payload bytes are unspecified until the first ParallelQuantizeScaledInto.
func NewQSumMatrix(rows, cols int) *QSumMatrix {
	q := &QSumMatrix{}
	q.Resize(rows, cols)
	return q
}

// chainStride rounds cols up to the 8-byte chunk accRowChain consumes.
func chainStride(cols int) int { return (cols + 7) &^ 7 }

// Resize reshapes q to rows×cols, reusing the backing array when it is large
// enough, and restores every PADDING byte to the bias value 128 (quantized
// zero), so chains over full strides see exact zeros in the pad columns.
// Payload bytes are left unspecified — ParallelQuantizeScaledInto
// overwrites every one of them, and skipping the full memset matters when
// the executor resizes a multi-megabyte recycled buffer per layer.
func (q *QSumMatrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	stride := chainStride(cols)
	q.Rows, q.Cols, q.Stride = rows, cols, stride
	if cap(q.Data) < rows*stride {
		q.Data = make([]byte, rows*stride)
	}
	q.Data = q.Data[:rows*stride]
	if stride != cols {
		for i := 0; i < rows; i++ {
			pad := q.Data[i*stride+cols : (i+1)*stride]
			for j := range pad {
				pad[j] = 128
			}
		}
	}
}

// Row returns row i including its padding bytes (length Stride).
func (q *QSumMatrix) Row(i int) []byte {
	return q.Data[i*q.Stride : (i+1)*q.Stride]
}

// String renders a compact shape descriptor (not the contents).
func (q *QSumMatrix) String() string {
	return fmt.Sprintf("QSumMatrix(%dx%d)", q.Rows, q.Cols)
}

// parallelQuantizeMinWork is the element count below which
// ParallelQuantizeScaledInto stays on the serial path: small matrices finish
// faster than the fan-out costs, and the serial path allocates nothing —
// which keeps the executor's steady-state allocation budget intact on small
// graphs.
const parallelQuantizeMinWork = 1 << 16

// ParallelQuantizeScaledInto quantizes the row-scaled matrix coefs[i]·m[i][j]
// into the shared-scale biased form: q.Scale·(q[i][j]−128) ≈ coefs[i]·m[i][j],
// with q.Scale the symmetric max-abs scale of the WHOLE scaled matrix. This
// is the aggregation layout of the int8 tier: with a per-edge coefficient
// separable into source and destination factors, the source factor folds
// into the quantized values here, so reduce chains sum raw byte rows in
// exact integer arithmetic (QChain) and dequantize once per vertex with
// q.Scale times the destination factor.
//
// Both passes (global max-abs, then rounding) fan across up to `workers`
// goroutines over row blocks. The reduction is a max — order-independent —
// and rounding is per-element, so the result is identical for every worker
// count. An all-zero (or all-zero-coefficient) input yields Scale 0 and an
// all-bias q. Non-finite products return ErrNonFinite wrapped with the row
// index.
func ParallelQuantizeScaledInto(q *QSumMatrix, m *Matrix, coefs []float32, workers int) error {
	if q.Rows != m.Rows || q.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: quantize %dx%d into %dx%d", m.Rows, m.Cols, q.Rows, q.Cols))
	}
	if len(coefs) != m.Rows {
		panic(fmt.Sprintf("tensor: %d row coefficients for %d rows", len(coefs), m.Rows))
	}
	rows := m.Rows
	nw := RowWorkers(rows, workers)
	if nw > 1 && rows*m.Cols < parallelQuantizeMinWork {
		nw = 1
	}
	var gmax float32
	badRow := -1
	if nw == 1 {
		gmax, badRow = scaledMaxAbs(m, coefs, 0, rows)
	} else {
		maxes := make([]float32, nw)
		bad := make([]int, nw) // first non-finite row seen per worker, -1 if none
		for i := range bad {
			bad[i] = -1
		}
		// fn may run several times per worker (chunks are claimed
		// dynamically), so fold into the per-worker slots — never overwrite.
		ParallelRows(rows, nw, func(w, lo, hi int) {
			if uint(w) >= uint(len(bad)) || uint(w) >= uint(len(maxes)) {
				return // unreachable; proves the indexing below
			}
			if bad[w] >= 0 {
				return
			}
			wmax, wbad := scaledMaxAbs(m, coefs, lo, hi)
			if wbad >= 0 {
				bad[w] = wbad
				return
			}
			if wmax > maxes[w] {
				maxes[w] = wmax
			}
		})
		for w, wmax := range maxes {
			if bad[w] >= 0 && (badRow < 0 || bad[w] < badRow) {
				badRow = bad[w]
			}
			if wmax > gmax {
				gmax = wmax
			}
		}
	}
	if badRow >= 0 {
		return fmt.Errorf("tensor: row %d: %w", badRow, ErrNonFinite)
	}
	if math.IsInf(float64(gmax), 0) {
		return fmt.Errorf("tensor: %w", ErrNonFinite)
	}
	if gmax == 0 {
		data := q.Data
		for i := range data {
			data[i] = 128
		}
		q.Scale = 0
		return nil
	}
	q.Scale = gmax / 127
	inv := 127 / gmax
	if nw == 1 {
		quantizeScaledRows(q, m, coefs, inv, 0, rows)
		return nil
	}
	ParallelRows(rows, nw, func(_, lo, hi int) {
		quantizeScaledRows(q, m, coefs, inv, lo, hi)
	})
	return nil
}

// scaledMaxAbs returns max |coefs[i]·m[i][j]| over rows [lo, hi), or the
// index of the first row producing NaN (badRow ≥ 0). The abs is branchless
// (clearing the sign bit) because this pass streams every element of the
// activation matrix on the int8 hot path and a sign branch on random data
// mispredicts half the time.
func scaledMaxAbs(m *Matrix, coefs []float32, lo, hi int) (gmax float32, badRow int) {
	const signMask = 0x80000000
	for ii, c := range coefs[lo:hi] {
		i := lo + ii
		for _, v := range m.Row(i) {
			a := math.Float32frombits(math.Float32bits(c*v) &^ signMask)
			if a != a { // NaN input, or Inf·0
				return 0, i
			}
			if a > gmax {
				gmax = a
			}
		}
	}
	return gmax, -1
}

// quantizeScaledRows rounds rows [lo, hi) into the biased byte form
// (branchless half-away-from-zero, see quantizeRowApply).
func quantizeScaledRows(q *QSumMatrix, m *Matrix, coefs []float32, inv float32, lo, hi int) {
	const signMask, halfBits = 0x80000000, 0x3F000000
	for ii, c := range coefs[lo:hi] {
		i := lo + ii
		rowInv := c * inv
		src := m.Row(i)
		dst := q.Row(i)[:len(src)]
		for j, v := range src {
			r := v * rowInv
			half := math.Float32frombits(math.Float32bits(r)&signMask | halfBits)
			dst[j] = uint8(int32(r+half) + 128)
		}
	}
}

// chainBlockEdges is the flush interval of the SWAR reduce-chain
// accumulator: each packed 16-bit lane holds sums of biased bytes (≤255), so
// 256 edges is the largest block that cannot overflow a lane (256·255 =
// 65280 < 2¹⁶). QChain flushes at least this often.
const chainBlockEdges = 256

// QChain is the int8 tier's reduce chain over one in-neighbour list, the
// integer counterpart of AxpyChain: acc += Σ (q.Row(r) − 128) over rows, in
// exact int32. It folds four biased rows per sweep into the packed chain
// accumulator swar (accRow4Chain), the tail one row each (accRowChain), and
// drains swar into acc every chainBlockEdges rows and at the end. Integer
// sums are associative, so the result does not depend on the list order,
// the four-row grouping or the flush points.
//
// acc must have length q.Stride and swar length q.Stride/4; swar must be
// all zero on entry and is all zero again on return.
func QChain(acc []int32, swar []uint64, q *QSumMatrix, rows []int32) {
	if len(acc) != q.Stride || len(swar) != q.Stride/4 {
		panic(fmt.Sprintf("tensor: qchain acc %d and swar %d for stride %d", len(acc), len(swar), q.Stride))
	}
	for len(rows) > 0 {
		block := rows[:min(len(rows), chainBlockEdges)]
		rows = rows[len(block):]
		n := len(block)
		for len(block) >= 4 {
			accRow4Chain(swar, q.Row(int(block[0])), q.Row(int(block[1])),
				q.Row(int(block[2])), q.Row(int(block[3])))
			block = block[4:]
		}
		for _, r := range block {
			accRowChain(swar, q.Row(int(r)))
		}
		flushChain(acc, swar, n)
	}
}

// accRowChainGeneric is the portable body of accRowChain, which accumulates
// one biased source row into the packed chain accumulator: swar holds two
// uint64 words per 8 columns — lanes of four 16-bit partial sums for the
// even and odd columns of each chunk — so each loop iteration folds 16
// feature bytes with six 64-bit ALU ops. This is the int8 tier's per-edge
// kernel: no multiply, no sign extension, no int→float conversion, and
// exact integer arithmetic, so chain results are independent of fold order
// and worker count by construction.
//
// It folds min(len(row)/8, len(swar)/2) eight-byte chunks; the QSumMatrix
// contract gives len(row) a multiple of 8 and len(swar) == len(row)/4. Lane
// layout: word 2c lanes 0..3 ↔ columns 8c+{0,2,4,6}, word 2c+1 ↔ columns
// 8c+{1,3,5,7}. On amd64 an SSE2 loop (kernels_amd64.s) folds 16 bytes per
// step into the same layout with the same wrapping uint64 adds; elsewhere
// accRowChainGeneric runs (kernels_noasm.go).
func accRowChainGeneric(swar []uint64, row []byte) {
	const laneMask = 0x00FF00FF00FF00FF
	for len(row) >= 16 && len(swar) >= 4 {
		u0 := binary.LittleEndian.Uint64(row)
		u1 := binary.LittleEndian.Uint64(row[8:])
		swar[0] += u0 & laneMask
		swar[1] += (u0 >> 8) & laneMask
		swar[2] += u1 & laneMask
		swar[3] += (u1 >> 8) & laneMask
		row = row[16:]
		swar = swar[4:]
	}
	if len(row) >= 8 && len(swar) >= 2 {
		u := binary.LittleEndian.Uint64(row)
		swar[0] += u & laneMask
		swar[1] += (u >> 8) & laneMask
	}
}

// accRow4ChainGeneric is the portable body of accRow4Chain, which folds
// four biased rows into swar in one sweep: per eight-byte chunk it adds the
// four rows' masked words first and the sum into swar second. uint64
// addition is associative and commutative modulo 2⁶⁴, so each word gets
// exactly the value four accRowChain calls give it, whatever the lanes
// hold. It folds min(len(r_i)/8, len(swar)/2) chunks over the four rows.
func accRow4ChainGeneric(swar []uint64, r0, r1, r2, r3 []byte) {
	const laneMask = 0x00FF00FF00FF00FF
	for len(swar) >= 2 && len(r0) >= 8 && len(r1) >= 8 && len(r2) >= 8 && len(r3) >= 8 {
		u0 := binary.LittleEndian.Uint64(r0)
		u1 := binary.LittleEndian.Uint64(r1)
		u2 := binary.LittleEndian.Uint64(r2)
		u3 := binary.LittleEndian.Uint64(r3)
		swar[0] += u0&laneMask + u1&laneMask + u2&laneMask + u3&laneMask
		swar[1] += (u0>>8)&laneMask + (u1>>8)&laneMask + (u2>>8)&laneMask + (u3>>8)&laneMask
		swar = swar[2:]
		r0, r1, r2, r3 = r0[8:], r1[8:], r2[8:], r3[8:]
	}
}

// flushChain drains the packed accumulator into acc and rezeroes it: each
// 16-bit lane holds Σ(q+128) over the edges block, so subtracting 128·edges
// recovers the exact signed sum Σq per column. acc must be padded to the
// QSumMatrix stride (len(acc) == len(swar)·4).
func flushChain(acc []int32, swar []uint64, edges int) {
	bias := int32(edges) * 128
	for len(swar) >= 2 && len(acc) >= 8 {
		e, o := swar[0], swar[1]
		swar[0], swar[1] = 0, 0
		acc[0] += int32(e&0xFFFF) - bias
		acc[1] += int32(o&0xFFFF) - bias
		acc[2] += int32((e>>16)&0xFFFF) - bias
		acc[3] += int32((o>>16)&0xFFFF) - bias
		acc[4] += int32((e>>32)&0xFFFF) - bias
		acc[5] += int32((o>>32)&0xFFFF) - bias
		acc[6] += int32(e>>48) - bias
		acc[7] += int32(o>>48) - bias
		swar = swar[2:]
		acc = acc[8:]
	}
}
