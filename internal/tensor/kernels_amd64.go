//go:build amd64 && !race

package tensor

// On amd64 the four hot kernels run the SSE2 loops in kernels_amd64.s.
// SSE2 is part of every amd64 CPU, so nothing is detected at run time. Race
// builds take the portable loops (kernels_noasm.go) because the race
// detector cannot see memory that assembly touches. Each wrapper bounds its
// slices exactly as the portable loop bounds itself, and the assembly
// touches only the elements those lengths allow. The declarations carry
// //go:noescape so callers' scratch stays on the stack.

//go:noescape
func axpy4RowSSE2(o []float32, a0, a1, a2, a3 float32, r0, r1, r2, r3 []float32)

//go:noescape
func accRowChainSSE2(swar []uint64, row []byte)

//go:noescape
func accRow4ChainSSE2(swar []uint64, r0, r1, r2, r3 []byte)

//go:noescape
func dotInt8SSE2(a, b []int8) int32

func axpy4Row(o []float32, a0 float32, r0 []float32, a1 float32, r1 []float32,
	a2 float32, r2 []float32, a3 float32, r3 []float32) {
	n := len(o)
	axpy4RowSSE2(o, a0, a1, a2, a3, r0[:n], r1[:n], r2[:n], r3[:n])
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
