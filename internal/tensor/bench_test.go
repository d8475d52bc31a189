package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul128(b *testing.B) {
	benchMatMul(b, 128, 128, 128)
}

// BenchmarkMatMulReddit times the one-worker GEMM at the Reddit build's two
// prepare shapes: the layer-0 transform of a narrowing fp32 layer
// (931×602 times 602×64) and gs-pl's pooling MLP (602×512).
func BenchmarkMatMulReddit(b *testing.B) {
	for _, cols := range []int{64, 512} {
		b.Run(fmt.Sprintf("931x602x%d", cols), func(b *testing.B) { benchMatMul(b, 931, 602, cols) })
	}
}

// benchMatMul times ParallelMatMulInto of a random m×k by k×n product at one
// worker.
func benchMatMul(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	x := RandomMatrix(rng, m, k, 1)
	y := RandomMatrix(rng, k, n, 1)
	out := NewMatrix(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelMatMulInto(out, x, y, 1)
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

// The Reddit benchmarks time the three hot kernels at the Reddit-scale
// build's layer-0 shapes (602-wide rows; 492 in-neighbours, Reddit's mean
// in-degree, drawn from 931 source rows; a 602→64 update) that the forward
// benchmarks and perfbench run, so a layout check gets a seconds-long
// answer. On amd64 each has an asm sub-benchmark, the production path, and
// a generic one, the same work on the portable loops (benchKernel).

// BenchmarkAxpyChainReddit runs one float32 reduce chain.
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
	benchKernel(b, int64(len(rows))*int64(src.Cols)*4,
		func() { AxpyChain(acc, src, rows, coefs) },
		func() { axpyChainGeneric(acc, src, rows, coefs) })
}

// axpyChainGeneric is AxpyChain on the portable four-row loop.
func axpyChainGeneric(acc []float32, m *Matrix, rows []int32, coefs []float32) {
	for ; len(rows) >= 4; rows, coefs = rows[4:], coefs[4:] {
		axpy4RowGeneric(acc,
			coefs[0], m.Row(int(rows[0])), coefs[1], m.Row(int(rows[1])),
			coefs[2], m.Row(int(rows[2])), coefs[3], m.Row(int(rows[3])))
	}
	for i, r := range rows {
		axpyRow(acc, coefs[i], m.Row(int(r)))
	}
}

// BenchmarkAccRowChainReddit runs one int8 reduce chain (QChain) over a
// Reddit-degree list, at the input width (602, natural order) and the
// output width (64, a narrowing layer's chain).
func BenchmarkAccRowChainReddit(b *testing.B) {
	for _, cols := range []int{602, 64} {
		b.Run(fmt.Sprint(cols), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			src := NewQSumMatrix(931, cols)
			for i := 0; i < src.Rows; i++ {
				rng.Read(src.Row(i)[:src.Cols])
			}
			rows := make([]int32, 492)
			for i := range rows {
				rows[i] = int32(rng.Intn(src.Rows))
			}
			swar := make([]uint64, src.Stride/4)
			acc := make([]int32, src.Stride)
			benchKernel(b, int64(len(rows))*int64(src.Stride),
				func() { QChain(acc, swar, src, rows) },
				func() { qChainGeneric(acc, swar, src, rows) })
		})
	}
}

// qChainGeneric is QChain on the portable loops.
func qChainGeneric(acc []int32, swar []uint64, q *QSumMatrix, rows []int32) {
	for len(rows) > 0 {
		block := rows[:min(len(rows), chainBlockEdges)]
		rows = rows[len(block):]
		n := len(block)
		for ; len(block) >= 4; block = block[4:] {
			accRow4ChainGeneric(swar, q.Row(int(block[0])), q.Row(int(block[1])),
				q.Row(int(block[2])), q.Row(int(block[3])))
		}
		for _, r := range block {
			accRowChainGeneric(swar, q.Row(int(r)))
		}
		flushChain(acc, swar, n)
	}
}

// BenchmarkQGemvReddit runs one int8 update GEMV, 602 → 64.
func BenchmarkQGemvReddit(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	wT, err := QuantizeTransposed(RandomMatrix(rng, 602, 64, 1))
	if err != nil {
		b.Fatal(err)
	}
	qx := make([]int8, wT.Cols)
	sx, err := QuantizeRowInto(qx, RandomVector(rng, wT.Cols, 1))
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float32, wT.Rows)
	benchKernel(b, int64(wT.Rows)*int64(wT.Cols),
		func() { QGemvInto(out, qx, sx, wT) },
		func() {
			for j := range out {
				out[j] = sx * wT.Scales[j] * float32(dotInt8Generic(qx, wT.Row(j)))
			}
		})
}

// runKernel times fn, which moves bytes bytes per call.
func runKernel(b *testing.B, bytes int64, fn func()) {
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}
