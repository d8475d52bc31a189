//go:build amd64 && !race

package tensor

import "fmt"

// On amd64 the four row-list kernels run the SSE2 loops in kernels_amd64.s.
// SSE2 is part of every amd64 CPU, so nothing is detected at run time. Race
// builds take the portable loops (kernels_noasm.go) because the race
// detector cannot see memory that assembly touches. Each wrapper bounds its
// slices exactly as the portable loop bounds itself, and the assembly
// touches only the elements those lengths allow; every kernel also reads
// its data rows up to the bound its caller checks once per call
// (checkBacking), and checks every row index itself. The declarations
// carry //go:noescape so callers' scratch stays on the stack.

//go:noescape
func sumRowsSSE2(o, data []float32, nrows int, rows []int32) int

//go:noescape
func axpyRowsSSE2(o, data []float32, nrows int, rows []int32, coefs []float32) int

//go:noescape
func qsumRowsSSE2(o []int32, data []byte, nrows int, rows []int32) int

//go:noescape
func qgemvRowsSSE2(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int

//go:noescape
func qgemv8DenseSSE2(acc []int32, w []int8, stride int, x []int8)

func sumRows(o, data []float32, nrows int, rows []int32) int {
	return sumRowsSSE2(o, data, nrows, rows)
}

func axpyRows(o, data []float32, nrows int, rows []int32, coefs []float32) int {
	return axpyRowsSSE2(o, data, nrows, rows, coefs[:len(rows)])
}

// qsumRows sums whole 8-column chunks, as qsumRowsGeneric does.
func qsumRows(acc []int32, data []byte, nrows int, rows []int32) int {
	return qsumRowsSSE2(acc[:len(acc)&^7], data, nrows, rows)
}

func qgemvRows(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int {
	return qgemvRowsSSE2(acc, w, stride, nrows, rows, pairs[:len(rows)])
}

// qgemv8Dense walks x's whole pairs, as qgemv8DenseGeneric does. The
// assembly's two overlapping 4-column halves need 4 to 8 columns.
func qgemv8Dense(acc []int32, w []int8, stride int, x []int8) {
	if uint(len(acc)-4) > 4 {
		panic(fmt.Sprintf("tensor: dense GEMV walk of %d columns", len(acc)))
	}
	qgemv8DenseSSE2(acc, w, stride, x[:len(x)&^1])
}
