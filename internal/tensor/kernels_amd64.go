//go:build amd64 && !race

package tensor

// On amd64 the five hot kernels run the SSE2 loops in kernels_amd64.s.
// SSE2 is part of every amd64 CPU, so nothing is detected at run time. Race
// builds take the portable loops (kernels_noasm.go) because the race
// detector cannot see memory that assembly touches. Each wrapper bounds its
// slices exactly as the portable loop bounds itself, and the assembly
// touches only the elements those lengths allow; the two fp32 row-list
// kernels also read data up to nrows·len(o), which their callers check
// once per call (checkBacking), and check every row index themselves. The
// declarations carry //go:noescape so callers' scratch stays on the stack.

//go:noescape
func sumRowsSSE2(o, data []float32, nrows int, rows []int32) int

//go:noescape
func axpyRowsSSE2(o, data []float32, nrows int, rows []int32, coefs []float32) int

//go:noescape
func accRowChainSSE2(swar []uint64, row []byte)

//go:noescape
func accRow4ChainSSE2(swar []uint64, r0, r1, r2, r3 []byte)

//go:noescape
func dotInt8SSE2(a, b []int8) int32

func sumRows(o, data []float32, nrows int, rows []int32) int {
	return sumRowsSSE2(o, data, nrows, rows)
}

func axpyRows(o, data []float32, nrows int, rows []int32, coefs []float32) int {
	return axpyRowsSSE2(o, data, nrows, rows, coefs[:len(rows)])
}

// accRowChain folds min(len(row)/8, len(swar)/2) eight-byte chunks: the
// count accRowChainGeneric's 16-byte loop plus its 8-byte step reaches.
func accRowChain(swar []uint64, row []byte) {
	n := min(len(row)/8, len(swar)/2)
	accRowChainSSE2(swar[:2*n], row[:8*n])
}

// accRow4Chain folds the chunk count accRow4ChainGeneric's loop reaches:
// min(len(r_i)/8, len(swar)/2) over the four rows.
func accRow4Chain(swar []uint64, r0, r1, r2, r3 []byte) {
	n := min(len(r0), len(r1), len(r2), len(r3)) / 8
	n = min(n, len(swar)/2)
	accRow4ChainSSE2(swar[:2*n], r0[:8*n], r1[:8*n], r2[:8*n], r3[:8*n])
}

func dotInt8(a, b []int8) int32 {
	return dotInt8SSE2(a, b[:len(a)])
}
