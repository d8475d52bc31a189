package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite marks quantization inputs containing NaN or ±Inf. Graph
// loaders reject non-finite features at the parse boundary; this sentinel
// guards the remaining paths (programmatic inputs, intermediate activations)
// so a poisoned row can never silently quantize to garbage.
var ErrNonFinite = errors.New("tensor: non-finite value")

// QuantizeRowInto quantizes one float32 row into q (equal length) and
// returns the dequantization scale: q[j]·scale ≈ row[j] with absolute error
// at most scale/2. An all-zero row quantizes to scale 0. Rows containing NaN
// or ±Inf return ErrNonFinite and leave q unspecified.
//
// The max-abs pass has no branch per element: with the sign bit cleared, a
// float32's bits order like its magnitude, and every NaN or ±Inf pattern is
// at least 0x7f800000, so one unsigned integer max finds both the scale and
// any non-finite value. A sign test or a NaN test per element mispredicts
// on signed activations, and this pass reads every activation row the int8
// tier quantizes.
func QuantizeRowInto(q []int8, row []float32) (float32, error) {
	if len(q) != len(row) {
		panic(fmt.Sprintf("tensor: quantize row %d into %d", len(row), len(q)))
	}
	const signMask, infBits = 0x80000000, 0x7f800000
	var maxBits uint32
	for _, v := range row {
		maxBits = max(maxBits, math.Float32bits(v)&^signMask)
	}
	if maxBits >= infBits {
		return 0, ErrNonFinite
	}
	if maxBits == 0 {
		for j := range q {
			q[j] = 0
		}
		return 0, nil
	}
	maxAbs := math.Float32frombits(maxBits)
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

// QWeights is the int8 tier's weight layout: an In×Out weight matrix w,
// each output column j quantized under its own scale (maxabs of column
// j)/127, the symmetric per-vector scheme of QuantizeRowInto. It is stored
// k-major in pairs of input rows: pair row p holds (w[2p][j], w[2p+1][j])
// at bytes 2j and 2j+1 for every output column j, so one 16-byte load
// holds both inputs' weights for eight output columns (see QGemvInto). An
// odd In is padded with a zero input row.
type QWeights struct {
	in, out int
	pairs   []int8    // (in+1)/2 pair rows of 2·out bytes
	scales  []float32 // one dequantization scale per output column
}

// QuantizeWeights quantizes w into the pair layout: column j gets the
// values and scale QuantizeRowInto gives it. A NaN or ±Inf weight returns
// ErrNonFinite wrapped with its column.
func QuantizeWeights(w *Matrix) (*QWeights, error) {
	q := &QWeights{
		in: w.Rows, out: w.Cols,
		pairs:  make([]int8, (w.Rows+1)/2*2*w.Cols),
		scales: make([]float32, w.Cols),
	}
	t := w.T()
	col := make([]int8, w.Rows)
	scales, stride := q.scales, 2*w.Cols
	for j := range scales {
		s, err := QuantizeRowInto(col, t.Row(j))
		if err != nil {
			return nil, fmt.Errorf("tensor: column %d: %w", j, err)
		}
		scales[j] = s
		// Column j's two weights sit at bytes 2j and 2j+1 of each pair row.
		c, at := col, q.pairs[2*j:]
		for len(c) >= 2 && len(at) >= 2 {
			at[0], at[1] = c[0], c[1]
			c, at = c[2:], at[min(stride, len(at)):]
		}
		if len(c) == 1 && len(at) >= 1 {
			at[0] = c[0]
		}
	}
	return q, nil
}

// qgemvChunk is the length of QGemvInto's stack list of non-zero input
// pairs and of its int32 output panel; a longer row is compacted, and a
// wider output accumulated, one chunk at a time. Go zeroes both arrays on
// every call, so they stay small enough for a narrow GEMV not to pay for
// a wide one.
const qgemvChunk = 64

// QGemvInto computes the int8 GEMV out = x·w: out[j] = sx · scale[j] ·
// Σ_k qx[k]·w[k][j], where qx is a quantized activation row with scale sx
// (see QuantizeRowInto). This is the per-vertex update and transform
// kernel of the quantized tier: exact int32 accumulation, one dequantizing
// multiply pair per output element. It compacts qx's non-zero input pairs,
// in ascending order, into a stack list (each entry carrying its pair
// packed as two int16s) and runs qgemvRows over it into an int32 panel of
// up to qgemvChunk output columns, so all-zero pairs are skipped and each
// pair is broadcast once per output panel. An output of 4 to 8 columns
// instead walks every pair of qx in place (qgemv8Dense): one 8-column
// panel does too little work per pair to repay the compaction.
func QGemvInto(out []float32, qx []int8, sx float32, w *QWeights) {
	if len(qx) != w.in {
		panic(fmt.Sprintf("tensor: qgemv %d · %dx%d", len(qx), w.in, w.out))
	}
	if len(out) != w.out {
		panic(fmt.Sprintf("tensor: qgemv out %d, want %d", len(out), w.out))
	}
	npairs, stride := (w.in+1)/2, 2*w.out
	checkBacking(npairs, stride, len(w.pairs))
	if 4 <= len(out) && len(out) <= 8 {
		var acc [8]int32
		a := acc[:len(out)]
		qgemv8Dense(a, w.pairs, stride, qx)
		if len(qx)%2 == 1 {
			// The odd last input pairs with the padded zero row.
			row, pair := [1]int32{int32(npairs - 1)}, [1]int32{int32(uint16(int16(qx[len(qx)-1])))}
			qgemvRows(a, w.pairs, stride, npairs, row[:], pair[:])
		}
		qdequant(out, a, sx, w.scales)
		return
	}
	var rows, pairs [qgemvChunk]int32
	var acc [qgemvChunk]int32
	for j0 := 0; j0 < len(out); j0 += qgemvChunk {
		a := acc[:min(qgemvChunk, len(out)-j0)]
		clear(a)
		for base := 0; base < len(qx); base += 2 * qgemvChunk {
			n := compactPairs(&rows, &pairs, qx[base:min(base+2*qgemvChunk, len(qx))], int32(base/2))
			if i := qgemvRows(a, w.pairs[2*j0:], stride, npairs, rows[:n], pairs[:n]); uint(i) < uint(n) {
				panic(rowOutOfRange(rows[i&(qgemvChunk-1)], npairs))
			}
		}
		qdequant(out[j0:], a, sx, w.scales[j0:])
	}
}

// qdequant writes out[j] = sx·scales[j]·float32(acc[j]) for each column
// of acc, the int8 tier's dequantizing multiply pair in its fixed order.
func qdequant(out []float32, acc []int32, sx float32, scales []float32) {
	out = out[:len(acc)]
	scales = scales[:len(acc)]
	for j, s := range acc {
		out[j] = sx * scales[j] * float32(s)
	}
}

// compactPairs writes the pair index (first is the index of qx's first
// pair) and the two values, packed as int16s, of every pair of qx that is
// not all zero into rows and pairs, in ascending order, and returns their
// count. An odd last value pairs with zero. qx holds at most 2·qgemvChunk
// values.
func compactPairs(rows, pairs *[qgemvChunk]int32, qx []int8, first int32) int {
	n := 0
	for ; len(qx) >= 2; qx = qx[2:] {
		p := int32(uint16(int16(qx[0]))) | int32(qx[1])<<16
		// Every pair is written and an all-zero one is then overwritten
		// by the next. n ≤ its pair's index < qgemvChunk, so the mask,
		// which lets the compiler drop the bounds checks, never changes
		// an index.
		rows[n&(qgemvChunk-1)], pairs[n&(qgemvChunk-1)] = first, p
		if p != 0 {
			n++
		}
		first++
	}
	if len(qx) == 1 && qx[0] != 0 {
		rows[n&(qgemvChunk-1)], pairs[n&(qgemvChunk-1)] = first, int32(uint16(int16(qx[0])))
		n++
	}
	return n
}

// qgemvRowsGeneric is the portable body of qgemvRows, the int8 GEMV's
// row-list kernel: for each i in list order, with r = rows[i] and the pair
// (x0, x1) packed in pairs[i] as two int16s, acc[j] += x0·w[r·stride+2j] +
// x1·w[r·stride+2j+1] for every column j of acc, in wrapping int32. It
// returns len(rows), or the list position of the first index outside
// [0, nrows), whose row it never reads; with no columns it reads nothing
// and checks nothing. qgemvRows runs this loop, or on amd64 its AVX2
// version, which keeps each panel of up to 64 columns in registers for the
// whole list; integer sums are exact, so the two agree. pairs must hold
// len(rows) elements and w (nrows−1)·stride + 2·len(acc) bytes.
func qgemvRowsGeneric(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int {
	if len(acc) == 0 {
		return len(rows)
	}
	pairs = pairs[:len(rows)]
	for i, r := range rows {
		if uint(r) >= uint(nrows) {
			return i
		}
		addPair(acc, w[int(r)*stride:][:2*len(acc)], int32(int16(pairs[i])), pairs[i]>>16)
	}
	return len(rows)
}

// addPair adds x0·row[2j] + x1·row[2j+1] into acc[j] for every column j
// of acc: one input pair's products with its pair row of weights.
func addPair(acc []int32, row []int8, x0, x1 int32) {
	for a := acc; len(a) > 0 && len(row) >= 2; a, row = a[1:], row[2:] {
		a[0] += x0*int32(row[0]) + x1*int32(row[1])
	}
}

// qgemv8DenseGeneric is the portable body of qgemv8Dense, the GEMV walk
// of a 4- to 8-column output: acc[j] += x[2p]·w[p·stride+2j] +
// x[2p+1]·w[p·stride+2j+1] for every whole pair p of x, in order. It is
// qgemvRowsGeneric over the list of every pair of x, which needs no index
// check. w must hold (len(x)/2−1)·stride + 2·len(acc) bytes.
func qgemv8DenseGeneric(acc []int32, w []int8, stride int, x []int8) {
	for off := 0; len(x) >= 2; off, x = off+stride, x[2:] {
		addPair(acc, w[off:][:2*len(acc)], int32(x[0]), int32(x[1]))
	}
}

// QSumMatrix is the shared-scale aggregation operand of the int8 tier: a
// row-major byte matrix storing BIASED quantized values b = q+128 (so b is a
// plain unsigned byte) under ONE dequantization scale for the whole matrix —
// element (i, j) represents Scale·(Data[i·Stride+j]−128). Rows are padded to
// a Stride that is a multiple of 8 with the bias byte 128 (quantized zero),
// which lets the reduce chain (QChain) sum whole 8-column chunks with no
// tail loop.
//
// The shared scale is what makes integer reduce chains possible: per-row
// scales would force a dequantizing multiply at every hop, while a shared
// scale defers the single multiply to the end of the chain.
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

// chainStride rounds cols up to the 8-column chunk QChain sums.
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

// chainBlockEdges is the number of rows the amd64 reduce chain sums in
// 16-bit lanes before it widens them into int32: each lane holds sums of
// biased bytes (≤255), so 256 rows is the largest block that cannot
// overflow a lane (256·255 = 65280 < 2¹⁶).
const chainBlockEdges = 256

// QChain is the int8 tier's reduce chain over one in-neighbour list, the
// integer counterpart of SumChain: acc += Σ (q.Row(r) − 128) over rows, in
// exact int32, as one qsumRows call. Integer sums are associative, so the
// result depends on neither the list order nor the kernel's panels and
// blocks. acc must have length q.Stride, a multiple of 8; an index outside
// q panics, as q.Row does.
func QChain(acc []int32, q *QSumMatrix, rows []int32) {
	if len(acc) != q.Stride || q.Stride%8 != 0 {
		panic(fmt.Sprintf("tensor: qchain acc %d for stride %d", len(acc), q.Stride))
	}
	checkBacking(q.Rows, q.Stride, len(q.Data))
	if i := qsumRows(acc, q.Data, q.Rows, rows); uint(i) < uint(len(rows)) {
		panic(rowOutOfRange(rows[i], q.Rows))
	}
}

// qsumRowsGeneric is the portable body of qsumRows, the int8 reduce
// chain's row-list kernel: acc[j] += data[r·w+j] − 128 for each r in rows,
// over the w = len(acc) rounded down to a multiple of 8 columns. It
// returns and checks as qgemvRowsGeneric. qsumRows runs this loop, or on
// amd64 its AVX2 version, which keeps panels of up to 64 columns in 16-bit
// lanes for the whole list, widening them every chainBlockEdges rows; the
// sums are exact, so the two agree. data must hold nrows·w bytes.
func qsumRowsGeneric(acc []int32, data []byte, nrows int, rows []int32) int {
	w := len(acc) &^ 7
	if w == 0 {
		return len(rows)
	}
	acc = acc[:w]
	for i, r := range rows {
		if uint(r) >= uint(nrows) {
			return i
		}
		row := data[int(r)*w:][:w]
		a := acc[:len(row)]
		for j, b := range row {
			a[j] += int32(b) - 128
		}
	}
	return len(rows)
}
