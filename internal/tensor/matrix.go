// Package tensor provides the dense linear-algebra substrate used by the
// golden GNN reference executor and the functional accelerator models.
//
// The default tier is float32 (the paper evaluates IEEE 754 single
// precision), row-major; an opt-in int8 tier (QWeights / QSumMatrix) backs
// the quantized execution path. The package is a small kernel layer with an
// explicit selection policy rather than a BLAS:
//
//   - Kernels write into caller-owned memory (ParallelMatMulInto,
//     VecMatInto, SumChain, …); hot loops call them with caller-owned
//     scratch so steady-state execution performs no heap allocation.
//   - The GEMV (VecMatInto), the GEMM (ParallelMatMulInto, one VecMatInto
//     per output row) and the float32 reduce chain (SumChain) run on one
//     output-stationary kernel family over a list of row indices:
//     axpyRows adds coefficient-scaled rows, sumRows adds them unscaled.
//     Each keeps a panel of up to 32 output columns in registers for the
//     whole list, so every output element is loaded and stored once per
//     call; each element still gets its products and sums in the order of
//     one axpyRow (or addRow) pass per row, so the panel width never
//     changes results bit-wise. Both check every row index against
//     m.Rows before reading the row (a bad index panics, as Matrix.Row
//     does), and each call checks once that m.Data holds Rows·Cols.
//   - VecMatInto compacts x's non-zero entries, in ascending k, into a
//     fixed-size stack list (vecMatChunk entries; a longer x runs chunk by
//     chunk) and runs axpyRows over it, so zeros are skipped and a ReLU'd
//     input costs only its non-zero entries. The GEMM has no
//     cache-blocked variant: at the Reddit build's shapes (931×602 times
//     602×64 and 602×512) the per-row sweep beat the k×j-blocked panels it
//     replaced by 4–5× (EXPERIMENTS.md, "Aggregate at the narrower
//     width").
//   - The float32 reduce chain (SumChain) multiplies nothing: the executor
//     scales each source row by its per-source factor once per layer
//     (ScaleRowsInto) and each vertex's sum by its per-destination factor
//     once, so the chain is one sumRows call over the in-neighbour list,
//     in list order.
//   - The int8 GEMV (QGemvInto) multiplies a quantized activation row
//     against QWeights, the weights quantized per output column and stored
//     k-major in pairs of input rows. It compacts the row's non-zero input
//     pairs into a stack list and runs qgemvRows over it: each pair is
//     broadcast once per output panel and multiplied into int32 lanes
//     (VPMADDWD), and dequantization (scaleX·scaleW per element) happens
//     once at the output boundary. An output of 4 to 8 columns walks every
//     pair in place instead (qgemv8Dense), with no compaction. The
//     aggregation side uses the shared-scale QSumMatrix layout: QChain,
//     the integer counterpart of SumChain, is one qsumRows call, which
//     sums biased byte rows into 16-bit lanes, 64 columns in registers for
//     the whole list, and widens them into int32, less the bias, every 256
//     rows.
//   - On amd64 hosts with AVX2 the four row-list kernels — sumRows,
//     axpyRows, qsumRows and qgemvRows — and the dense walk run as AVX2
//     assembly (kernels_amd64.s), eight floats or thirty-two bytes per
//     instruction, selected once at start-up from CPUID. The row-list
//     kernels walk the list inside the assembly once per panel: the fp32
//     ones and the GEMV 64 columns while more than 64 remain, then one walk
//     of the smallest panel (64, 48, 32 or 16 columns, its two halves
//     overlapping when the rest is narrower) or of the last 8 or fewer
//     columns; the int8 chain 64 columns, then one walk each of 48, 32, 16
//     and 8 as its stride needs. Each checks every row index. Each vector
//     lane does the portable loop's arithmetic in the same order (a float32
//     multiply then an add, never fused; exact integer sums), so results
//     are bit-identical to the Go loops, which keep their bodies under
//     …Generic names, round each float32 product by an explicit
//     conversion, and are the path on amd64 hosts without AVX2, on other
//     architectures and in -race builds (kernels_noasm.go).
//   - Row-level parallelism is explicit: ParallelMatMulInto,
//     ParallelQuantizeScaledInto and the ParallelRows helper fan disjoint
//     row ranges across a bounded worker count. The
//     float32 kernels are bit-identical to the serial sweep by construction
//     (each row is produced by the same serial kernel); the int8 kernels
//     are exactly identical regardless of worker count because int32
//     accumulation is associative.
//
// The hot-loop files (kernels.go, quant.go) are kept bounds-check-free —
// every inner loop is shaped so the compiler proves indices in range;
// `make bce` enforces this via -d=ssa/check_bce, for the portable kernel
// bodies too, and `make crossbuild` compiles the package without the
// assembly.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// RowViews returns rows [lo, hi) as views into m's backing array, each
// capped at its own end by a full slice expression, so an append to one
// row reallocates instead of overwriting the next. It lets a caller hand
// out the rows of a matrix nothing else holds without copying them.
func (m *Matrix) RowViews(lo, hi int) [][]float32 {
	rows := make([][]float32, hi-lo)
	for i := range rows {
		start := (lo + i) * m.Cols
		rows[i] = m.Data[start : start+m.Cols : start+m.Cols]
	}
	return rows
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Resize reshapes m to rows×cols, reusing the backing array when it is
// large enough. The contents are unspecified afterwards: callers overwrite
// every element (the executor recycles one prepared matrix per layer).
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	if cap(m.Data) < rows*cols {
		m.Data = make([]float32, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Equal reports whether m and o have identical shape and byte-identical
// elements: +0 and −0 differ, and a NaN equals a NaN with the same bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Float32bits(v) != math.Float32bits(o.Data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether m and o have identical shape and elementwise
// |a-b| <= atol + rtol*|b|, the usual numpy-style comparison.
func (m *Matrix) AllClose(o *Matrix, rtol, atol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		a, b := float64(v), float64(o.Data[i])
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference. Panics on
// shape mismatch.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	var max float64
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(o.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// String renders a compact shape descriptor (not the contents).
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
