package tensor

import "fmt"

// VecMat returns xᵀ·a for a Rows-vector and a Rows×Cols matrix. This is the
// orientation the accelerators use (feature-vector times weight matrix).
// Allocating wrapper over VecMatInto.
func VecMat(x []float32, a *Matrix) []float32 {
	out := make([]float32, a.Cols)
	VecMatInto(out, x, a)
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot %d · %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Scale multiplies x by alpha in place and returns x.
func Scale(alpha float32, x []float32) []float32 {
	for i := range x {
		x[i] *= alpha
	}
	return x
}

// MaxElems writes elementwise max(acc, x) into acc.
func MaxElems(acc, x []float32) {
	if len(acc) != len(x) {
		panic(fmt.Sprintf("tensor: max %d vs %d", len(acc), len(x)))
	}
	for i, v := range x {
		if v > acc[i] {
			acc[i] = v
		}
	}
}

// ReLU applies max(0, x) in place and returns x.
func ReLU(x []float32) []float32 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}
