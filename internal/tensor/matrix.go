// Package tensor provides the dense linear-algebra substrate used by the
// golden GNN reference executor and the functional accelerator models.
//
// The default tier is float32 (the paper evaluates IEEE 754 single
// precision), row-major; an opt-in int8 tier (QMatrix / QSumMatrix) backs
// the quantized execution path. The package is a small kernel layer with an
// explicit selection policy rather than a BLAS:
//
//   - Kernels write into caller-owned memory (ParallelMatMulInto,
//     VecMatInto, AxpyChain, …); hot loops call them with caller-owned
//     scratch so steady-state execution performs no heap allocation.
//   - The float32 reduce chain (AxpyChain), GEMV (VecMatInto) and GEMM
//     (ParallelMatMulInto, one VecMatInto per output row) add four rows per
//     sweep over the output row (axpy4Row), loading and storing each output
//     element once per four rows instead of once per row. Each element
//     still gets its products and sums in the order of one axpyRow pass per
//     row, so the sweep width never changes results bit-wise. The GEMM has
//     no cache-blocked variant: at the Reddit build's shapes (931×602 times
//     602×64 and 602×512) the per-row sweep beat the k×j-blocked panels it
//     replaced by 4–5× (EXPERIMENTS.md, "Aggregate at the narrower width").
//   - Int8 GEMM (ParallelQMatMulInto / QGemvInto) multiplies a quantized
//     activation QMatrix against a pre-transposed quantized weight matrix
//     with int32 accumulation, processing bT rows in qgemmBlockJ (32-row)
//     panels; dequantization (scaleA·scaleB per element) happens once at
//     the output boundary. The aggregation side uses the shared-scale QSumMatrix
//     layout: QChain, the integer counterpart of AxpyChain, folds four
//     biased rows per sweep into SWAR uint64 lanes (accRow4Chain, the tail
//     one row each with accRowChain) and flushes them into int32, minus the
//     accumulated bias, every 256 rows.
//   - On amd64 the four innermost loops — axpy4Row, accRowChain,
//     accRow4Chain and the int8 inner product dotInt8 behind QGemvInto and
//     ParallelQMatMulInto — run as SSE2 assembly (kernels_amd64.s), four
//     floats or sixteen bytes per instruction. Each SSE lane does the
//     portable loop's arithmetic in the same order (a float32 multiply then
//     an add, never fused; exact integer sums), so results are bit-identical
//     to the Go loops, which keep their bodies under …Generic names and are
//     the only path on other architectures and in -race builds
//     (kernels_noasm.go).
//   - Row-level parallelism is explicit: ParallelMatMulInto,
//     ParallelQMatMulInto, ParallelQuantizeScaledInto and the ParallelRows
//     helper fan disjoint row ranges across a bounded worker count. The
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
