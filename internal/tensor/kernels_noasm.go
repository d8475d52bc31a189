//go:build !amd64 || race

package tensor

// Without the amd64 assembly (other architectures, and race builds, whose
// detector cannot see memory that assembly touches) the hot kernels are the
// portable loops.

func sumRows(o, data []float32, nrows int, rows []int32) int {
	return sumRowsGeneric(o, data, nrows, rows)
}

func axpyRows(o, data []float32, nrows int, rows []int32, coefs []float32) int {
	return axpyRowsGeneric(o, data, nrows, rows, coefs)
}

func accRowChain(swar []uint64, row []byte) { accRowChainGeneric(swar, row) }

func accRow4Chain(swar []uint64, r0, r1, r2, r3 []byte) {
	accRow4ChainGeneric(swar, r0, r1, r2, r3)
}

func dotInt8(a, b []int8) int32 { return dotInt8Generic(a, b) }
