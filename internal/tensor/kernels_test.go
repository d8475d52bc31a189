package tensor

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The GEMM's rows run the axpy4Row sweep (SSE2 on amd64); they must match
// the plain one-axpyRow-per-element MatMul oracle bit for bit on a product
// that is ragged in every dimension, zeros included (both skip them).
func TestBlockedGEMMBitIdenticalToPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandomMatrix(rng, 37, 400, 1)
	b := RandomMatrix(rng, 400, 120, 1)
	// Sprinkle zeros so the zero-skip path runs in both kernels.
	for i := 0; i < len(a.Data); i += 5 {
		a.Data[i] = 0
	}
	got := NewMatrix(a.Rows, b.Cols)
	ParallelMatMulInto(got, a, b, 1)
	if want := MatMul(a, b); !got.Equal(want) {
		t.Fatalf("GEMM diverges from the plain oracle: max |Δ| = %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := RandomMatrix(rng, 13, 21, 1)
	b := RandomMatrix(rng, 21, 9, 1)
	want := MatMul(a, b)
	out := NewMatrix(13, 9)
	out.Fill(3) // Into must overwrite stale contents
	ParallelMatMulInto(out, a, b, 1)
	if !out.Equal(want) {
		t.Fatal("ParallelMatMulInto diverges from MatMul")
	}
}

func TestParallelMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][3]int{{1, 8, 4}, {17, 33, 29}, {64, 700, 80}} {
		a := RandomMatrix(rng, shape[0], shape[1], 1)
		b := RandomMatrix(rng, shape[1], shape[2], 1)
		want := MatMul(a, b)
		for _, workers := range []int{1, 2, 3, 8, 100} {
			got := NewMatrix(a.Rows, b.Cols)
			ParallelMatMulInto(got, a, b, workers)
			if !got.Equal(want) {
				t.Fatalf("shape %v workers %d: parallel result diverges", shape, workers)
			}
		}
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := RandomMatrix(rng, 11, 7, 1)
	x := make([]float32, 11)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}

	got := make([]float32, 7)
	VecMatInto(got, x, a)
	if want := VecMat(x, a); !equalSlice(got, want) {
		t.Fatal("VecMatInto diverges from VecMat")
	}

	u := []float32{1, -2, 3}
	v := []float32{4, 0.5, -1}
	cat := make([]float32, 6)
	ConcatInto(cat, u, v)
	if !equalSlice(cat, slices.Concat(u, v)) {
		t.Fatal("ConcatInto diverges from slices.Concat")
	}
}

func equalSlice(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func TestIntoKernelShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"matmul-inner": func() { ParallelMatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2), 1) },
		"matmul-out":   func() { ParallelMatMulInto(NewMatrix(3, 3), NewMatrix(2, 3), NewMatrix(3, 2), 1) },
		"vecmat-x":     func() { VecMatInto(make([]float32, 2), make([]float32, 3), NewMatrix(2, 2)) },
		"vecmat-out":   func() { VecMatInto(make([]float32, 3), make([]float32, 2), NewMatrix(2, 2)) },
		"concat":       func() { ConcatInto(make([]float32, 4), make([]float32, 2), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRowWorkers(t *testing.T) {
	if got := RowWorkers(10, 4); got != 4 {
		t.Fatalf("RowWorkers(10,4) = %d", got)
	}
	if got := RowWorkers(3, 8); got != 3 {
		t.Fatalf("RowWorkers(3,8) = %d", got)
	}
	if got := RowWorkers(5, 0); got < 1 || got > 5 {
		t.Fatalf("RowWorkers(5,0) = %d", got)
	}
	if got := RowWorkers(0, 4); got != 1 {
		t.Fatalf("RowWorkers(0,4) = %d", got)
	}
}

// Every row is visited exactly once, worker ids stay dense in
// [0, RowWorkers), and chunks never overlap — the invariants per-worker
// scratch indexing and bit-identical parallelism rest on.
func TestParallelRowsCoverage(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{1, 1}, {7, 1}, {7, 3}, {100, 8}, {1000, 16}, {5, 64},
	} {
		visits := make([]int32, tc.n)
		nw := RowWorkers(tc.n, tc.workers)
		var badWorker int32
		ParallelRows(tc.n, tc.workers, func(w, lo, hi int) {
			if w < 0 || w >= nw {
				atomic.StoreInt32(&badWorker, 1)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		if badWorker != 0 {
			t.Fatalf("n=%d workers=%d: worker id outside [0,%d)", tc.n, tc.workers, nw)
		}
		for i, c := range visits {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: row %d visited %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// Per-worker accumulation must see no cross-worker interference: each worker
// sums disjoint rows, and the grand total matches the serial sum.
func TestParallelRowsWorkerScratch(t *testing.T) {
	const n = 512
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	const workers = 7
	partial := make([]float64, workers)
	var mu sync.Mutex
	ParallelRows(n, workers, func(w, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += float64(vals[i])
		}
		mu.Lock()
		partial[w] += s
		mu.Unlock()
	})
	var got float64
	for _, p := range partial {
		got += p
	}
	if want := float64(n*(n-1)) / 2; got != want {
		t.Fatalf("partial sums total %v, want %v", got, want)
	}
}

// The Into kernels are the allocation-free substrate of the execution
// engine: zero allocations per call, enforced here so regressions surface
// as test failures rather than silent GC pressure.
func TestIntoKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandomMatrix(rng, 16, 300, 1)
	big := RandomMatrix(rng, 300, 200, 1)
	small := RandomMatrix(rng, 300, 20, 1)
	out := NewMatrix(16, 200)
	outSmall := NewMatrix(16, 20)
	x := make([]float32, 300)
	vec := make([]float32, 200)
	chainRows := []int32{3, 1, 4, 1, 5, 9, 2}
	chainCoefs := []float32{1, -1, 0, 0.5, 2, 1, 3}
	qsum := NewQSumMatrix(4, 300)
	swar := make([]uint64, qsum.Stride/4)
	acc32 := make([]int32, qsum.Stride)
	qrows := []int32{3, 1, 2, 1, 0, 3, 2}
	wT, err := QuantizeTransposed(small)
	if err != nil {
		t.Fatal(err)
	}
	qx := make([]int8, 300)
	qout := make([]float32, 20)
	for name, fn := range map[string]func(){
		"matMulRowsInto-300x200": func() { matMulRowsInto(out, a, big, 0, a.Rows) },
		"matMulRowsInto-300x20":  func() { matMulRowsInto(outSmall, a, small, 0, a.Rows) },
		"VecMatInto":             func() { VecMatInto(vec, x, big) },
		"AxpyChain":              func() { AxpyChain(vec, big, chainRows, chainCoefs) },
		"accRowChain":            func() { accRowChain(swar, qsum.Row(2)) },
		"QChain":                 func() { QChain(acc32, swar, qsum, qrows) },
		"QGemvInto":              func() { QGemvInto(qout, qx, 0.5, wT) },
		"ParallelRows-1":         func() { ParallelRows(16, 1, func(_, lo, hi int) {}) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %v per call", name, allocs)
		}
	}
}

// bitsEqual reports whether two float32 slices are byte-identical.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The four-row sweep must be bit-identical to four successive axpyRow passes
// at every width (the 4-block body and each tail), for coefficients that
// are 0, 1, −1 or arbitrary, and when rows repeat.
func TestAxpy4RowMatchesAxpyRow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	coefSets := [][4]float32{
		{0, 0, 0, 0}, {1, 1, 1, 1}, {-1, -1, -1, -1}, {1, -1, 0, 1},
		{rng.Float32(), -rng.Float32(), 3 * rng.Float32(), rng.Float32() - 0.5},
	}
	for width := 0; width <= 17; width++ {
		rows := make([][]float32, 4)
		for r := range rows {
			rows[r] = RandomVector(rng, width, 2)
		}
		for _, same := range []bool{false, true} {
			r := rows
			if same {
				r = [][]float32{rows[0], rows[1], rows[0], rows[0]}
			}
			for _, c := range coefSets {
				acc := RandomVector(rng, width, 1)
				want := append([]float32(nil), acc...)
				for k := range c {
					axpyRow(want, c[k], r[k])
				}
				axpy4Row(acc, c[0], r[0], c[1], r[1], c[2], r[2], c[3], r[3])
				if !bitsEqual(acc, want) {
					t.Fatalf("width %d repeated=%v coefs %v: four-row sweep diverges from four axpyRow passes",
						width, same, c)
				}
			}
		}
	}
}

// AxpyChain must be bit-identical to one axpyRow per row, in list order,
// for every chain length (whole 4-blocks plus each tail), every width, and
// lists that name a row more than once.
func TestAxpyChainMatchesAxpyRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	special := []float32{0, 1, -1}
	for width := 0; width <= 17; width++ {
		m := RandomMatrix(rng, 5, width, 2)
		for n := 0; n <= 9; n++ {
			rows := make([]int32, n)
			coefs := make([]float32, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(m.Rows)) // 9 draws over 5 rows repeat
				if i%2 == 0 {
					coefs[i] = special[rng.Intn(len(special))]
				} else {
					coefs[i] = rng.Float32() - 0.5
				}
			}
			acc := RandomVector(rng, width, 1)
			want := append([]float32(nil), acc...)
			for i, r := range rows {
				axpyRow(want, coefs[i], m.Row(int(r)))
			}
			AxpyChain(acc, m, rows, coefs)
			if !bitsEqual(acc, want) {
				t.Fatalf("width %d, %d rows %v: chain diverges from per-row axpyRow", width, n, rows)
			}
		}
	}
}

// VecMatInto must skip zero x entries wherever they fall in a 4-block and
// stay bit-identical to one axpyRow per non-zero entry. Every row of a is
// +Inf where x is zero, so a zero that reached the sweep would turn its
// column into NaN.
func TestVecMatIntoZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for n := 0; n <= 9; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			x := RandomVector(rng, n, 1)
			a := RandomMatrix(rng, n, 6, 1)
			for k := range x {
				if mask&(1<<k) != 0 {
					x[k] = 0
					if k%2 == 1 {
						x[k] = negZero
					}
					a.Row(k)[k%6] = inf
				}
			}
			want := make([]float32, a.Cols)
			for k, xv := range x {
				if xv != 0 {
					axpyRow(want, xv, a.Row(k))
				}
			}
			got := make([]float32, a.Cols)
			for i := range got {
				got[i] = 7 // stale contents must be overwritten
			}
			VecMatInto(got, x, a)
			if !bitsEqual(got, want) {
				t.Fatalf("n=%d zero mask %b: VecMatInto %v, per-entry axpyRow %v", n, mask, got, want)
			}
		}
	}
}
