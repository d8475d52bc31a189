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

func qsumRows(acc []int32, data []byte, nrows int, rows []int32) int {
	return qsumRowsGeneric(acc, data, nrows, rows)
}

func qgemvRows(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int {
	return qgemvRowsGeneric(acc, w, stride, nrows, rows, pairs)
}

func qgemv8Dense(acc []int32, w []int8, stride int, x []int8) {
	qgemv8DenseGeneric(acc, w, stride, x)
}
