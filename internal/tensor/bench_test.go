package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul128(b *testing.B) {
	benchMatMul(b, 128, 128, 128, false)
}

// BenchmarkMatMulReddit times the one-worker GEMM at the Reddit build's
// prepare shapes: the layer-0 transform of a narrowing fp32 layer (931×602
// times 602×64), gs-pl's pooling MLP (602×512), and the layer-1 transform
// (931×64 times 64×41) on a ReLU'd input, whose zero entries VecMatInto
// skips.
func BenchmarkMatMulReddit(b *testing.B) {
	for _, cols := range []int{64, 512} {
		b.Run(fmt.Sprintf("931x602x%d", cols), func(b *testing.B) { benchMatMul(b, 931, 602, cols, false) })
	}
	b.Run("931x64x41-relu", func(b *testing.B) { benchMatMul(b, 931, 64, 41, true) })
}

// benchMatMul times ParallelMatMulInto of a random m×k by k×n product at one
// worker; relu zeroes the negative half of the left operand first.
func benchMatMul(b *testing.B, m, k, n int, relu bool) {
	rng := rand.New(rand.NewSource(1))
	x := RandomMatrix(rng, m, k, 1)
	if relu {
		ReLU(x.Data)
	}
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

// BenchmarkVecMatSmall times one VecMatInto at small-open's update shapes
// (gcn and gin at dims [16, 32, 8]), where the fixed cost per call counts.
func BenchmarkVecMatSmall(b *testing.B) {
	for _, shape := range [][2]int{{16, 32}, {32, 32}, {32, 8}, {8, 8}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			w := RandomMatrix(rng, shape[0], shape[1], 1)
			x := RandomVector(rng, shape[0], 1)
			out := make([]float32, shape[1])
			runKernel(b, int64(w.Rows)*int64(w.Cols)*4, func() { VecMatInto(out, x, w) })
		})
	}
}

// The Reddit benchmarks time the hot kernels at the Reddit-scale build's
// shapes (492 in-neighbours, Reddit's mean in-degree, drawn from 931
// source rows; a 602→64 update) that the forward benchmarks and perfbench
// run, so a layout check gets a seconds-long answer. On amd64 each has an
// asm sub-benchmark, the production path, and a generic one, the same
// work on the portable loops (benchKernel).

// BenchmarkSumChainReddit runs one float32 reduce chain at the widths a
// Reddit-scale gcn chains (64 after layer 0's transform, 41 after layer
// 1's), over 492 rows and over the short lists of low-degree vertices.
func BenchmarkSumChainReddit(b *testing.B) {
	for _, cols := range []int{64, 41} {
		for _, deg := range []int{492, 32, 8} {
			b.Run(fmt.Sprintf("%dx%d", cols, deg), func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				src := RandomMatrix(rng, 931, cols, 1)
				rows := make([]int32, deg)
				for i := range rows {
					rows[i] = int32(rng.Intn(src.Rows))
				}
				acc := make([]float32, src.Cols)
				benchKernel(b, int64(len(rows))*int64(src.Cols)*4,
					func() { SumChain(acc, src, rows) },
					func() { sumRowsGeneric(acc, src.Data, src.Rows, rows) })
			})
		}
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
