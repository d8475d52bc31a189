package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandomMatrix(rng, 128, 128, 1)
	y := RandomMatrix(rng, 128, 128, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkVecMat1433x16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	w := RandomMatrix(rng, 1433, 16, 1) // the Cora layer-1 GEMV
	x := RandomVector(rng, 1433, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VecMat(x, w)
	}
}

// BenchmarkAxpyChainReddit runs one float32 reduce chain at the Reddit
// layer-0 shape: 602-wide rows and 492 in-neighbours (Reddit's mean
// in-degree), drawn from 931 source rows as in the Reddit-scale build that
// the forward benchmarks and perfbench run. It gives a layout check a
// seconds-long answer.
func BenchmarkAxpyChainReddit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := RandomMatrix(rng, 931, 602, 1)
	rows := make([]int32, 492)
	coefs := make([]float32, len(rows))
	for i := range rows {
		rows[i] = int32(rng.Intn(src.Rows))
		coefs[i] = rng.Float32()
	}
	acc := make([]float32, src.Cols)
	b.ReportAllocs()
	b.SetBytes(int64(len(rows)) * int64(src.Cols) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AxpyChain(acc, src, rows, coefs)
	}
}
