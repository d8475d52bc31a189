//go:build !amd64 || race

package tensor

// Without the amd64 assembly (other architectures, and race builds, whose
// detector cannot see memory that assembly touches) the hot kernels are the
// portable loops.

func axpy4Row(o []float32, a0 float32, r0 []float32, a1 float32, r1 []float32,
	a2 float32, r2 []float32, a3 float32, r3 []float32) {
	axpy4RowGeneric(o, a0, r0, a1, r1, a2, r2, a3, r3)
}

func add4Row(o, r0, r1, r2, r3 []float32) { add4RowGeneric(o, r0, r1, r2, r3) }

func accRowChain(swar []uint64, row []byte) { accRowChainGeneric(swar, row) }

func accRow4Chain(swar []uint64, r0, r1, r2, r3 []byte) {
	accRow4ChainGeneric(swar, r0, r1, r2, r3)
}

func dotInt8(a, b []int8) int32 { return dotInt8Generic(a, b) }
