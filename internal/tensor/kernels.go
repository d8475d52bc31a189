package tensor

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelMatMulInto computes out = a·b with output rows fanned across up to
// `workers` goroutines (workers < 1 selects GOMAXPROCS). Each output row is
// one VecMatInto call, so it is bit-identical to one axpyRow pass per
// non-zero a element in ascending k, and bit-identical for any worker count
// because each row is produced by the same serial kernel. It allocates only
// the row closure it hands to ParallelRows, plus the goroutines when
// workers > 1. out must be a.Rows × b.Cols and must not alias a or b.
func ParallelMatMulInto(out, a, b *Matrix, workers int) {
	checkMatMulShape(out, a, b)
	ParallelRows(a.Rows, workers, func(_, lo, hi int) {
		matMulRowsInto(out, a, b, lo, hi)
	})
}

// matMulRowsInto writes rows [lo, hi) of a·b into out, one VecMatInto each.
func matMulRowsInto(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		VecMatInto(out.Row(i), a.Row(i), b)
	}
}

func checkMatMulShape(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul out %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
}

// checkBacking panics unless a backing array of n elements holds rows rows
// of cols, the bound the row-list kernels read up to. The product is taken
// in full width, so neither a negative dimension nor an overflowing one
// passes.
func checkBacking(rows, cols, n int) {
	if hi, lo := bits.Mul(uint(rows), uint(cols)); hi != 0 || lo > uint(n) {
		panic(fmt.Sprintf("tensor: %dx%d matrix over %d elements", rows, cols, n))
	}
}

// rowOutOfRange is the panic of a row-list kernel handed an index outside
// the matrix, raised before the kernel reads that row.
func rowOutOfRange(r int32, rows int) string {
	return fmt.Sprintf("tensor: row %d outside %d rows", r, rows)
}

// axpyRow computes o += alpha*brow over equal-length rows, each product
// rounded to float32 by an explicit conversion (so no architecture fuses it
// into the add), 4-way unrolled in the slice-advance form (`len(x) >= 4`
// guard + constant indices + `x[4:]` step) — the one idiom Go 1.24's prove
// pass reduces to zero IsInBounds checks (verified by `make bce`; an
// index-offset unroll like `o[j+1]` is NOT eliminated). Each element is
// touched exactly once, so unrolling cannot reorder any float addition —
// results stay bit-identical to the rolled loop.
func axpyRow(o []float32, alpha float32, brow []float32) {
	o = o[:len(brow)]
	for len(brow) >= 4 && len(o) >= 4 {
		o[0] += float32(alpha * brow[0])
		o[1] += float32(alpha * brow[1])
		o[2] += float32(alpha * brow[2])
		o[3] += float32(alpha * brow[3])
		o = o[4:]
		brow = brow[4:]
	}
	o = o[:len(brow)]
	for j, bv := range brow {
		o[j] += float32(alpha * bv)
	}
}

// addRow computes o += r over equal-length rows, in axpyRow's 4-way
// slice-advance form. Each element is touched exactly once, so the result
// is bit-identical to the rolled loop.
func addRow(o, r []float32) {
	o = o[:len(r)]
	for len(r) >= 4 && len(o) >= 4 {
		o[0] += r[0]
		o[1] += r[1]
		o[2] += r[2]
		o[3] += r[3]
		o = o[4:]
		r = r[4:]
	}
	o = o[:len(r)]
	for j, v := range r {
		o[j] += v
	}
}

// sumRowsGeneric is the portable body of sumRows, the add-only row-list
// kernel: o += data row r, len(o) wide, for each r in rows in list order,
// one addRow pass per row. It returns len(rows), or the list position of
// the first index outside [0, nrows), whose row it never reads (o then
// holds the rows before it; callers panic). With no columns it reads
// nothing and checks nothing. sumRows runs this loop, or on amd64 its AVX2
// version (kernels_amd64.s), which keeps each panel of up to 64 output
// columns in registers for the whole list and does the same add per lane;
// every element gets the same sums in the same order, so the two are
// bit-identical.
func sumRowsGeneric(o, data []float32, nrows int, rows []int32) int {
	w := len(o)
	if w == 0 {
		return len(rows)
	}
	for i, r := range rows {
		if uint(r) >= uint(nrows) {
			return i
		}
		addRow(o, data[int(r)*w:][:w])
	}
	return len(rows)
}

// axpyRowsGeneric is the portable body of axpyRows, the multiply-then-add
// row-list kernel: o += coefs[i]·(data row rows[i]) for each i in list
// order, one axpyRow pass per row. It returns and checks as
// sumRowsGeneric. coefs must hold len(rows) elements. axpyRows runs this
// loop, or on amd64 its AVX2 version, which broadcasts each coefficient
// once per panel and does the same multiply, then add, per lane.
func axpyRowsGeneric(o, data []float32, nrows int, rows []int32, coefs []float32) int {
	w := len(o)
	if w == 0 {
		return len(rows)
	}
	coefs = coefs[:len(rows)]
	for i, r := range rows {
		if uint(r) >= uint(nrows) {
			return i
		}
		axpyRow(o, coefs[i], data[int(r)*w:][:w])
	}
	return len(rows)
}

// SumChain computes acc += Σ m.Row(rows[i]) in list order, the float32
// reduce chain and the float twin of QChain, as one sumRows call: no
// multiply, and every column adds its terms in list order, so the result
// is bit-identical to one addRow per row. The executor folds a linear-sum
// layer's per-source factor into the rows before the chain and applies the
// per-destination factor after it. acc must have length m.Cols; an index
// outside m panics, as m.Row does.
func SumChain(acc []float32, m *Matrix, rows []int32) {
	if len(acc) != m.Cols {
		panic(fmt.Sprintf("tensor: sum chain acc %d for %d cols", len(acc), m.Cols))
	}
	checkBacking(m.Rows, m.Cols, len(m.Data))
	if i := sumRows(acc, m.Data, m.Rows, rows); uint(i) < uint(len(rows)) {
		panic(rowOutOfRange(rows[i], m.Rows))
	}
}

// ScaleRowsInto writes coefs[i]·m.Row(i) into dst.Row(i) for every row,
// one float32 multiply per element. dst must have m's shape and may be m
// itself; coefs must have one entry per row.
func ScaleRowsInto(dst, m *Matrix, coefs []float32) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols || len(coefs) != m.Rows {
		panic(fmt.Sprintf("tensor: scale %dx%d rows by %d coefs into %dx%d",
			m.Rows, m.Cols, len(coefs), dst.Rows, dst.Cols))
	}
	for i, c := range coefs {
		src := m.Row(i)
		out := dst.Row(i)[:len(src)]
		for j, v := range src {
			out[j] = c * v
		}
	}
}

// vecMatChunk is the length of VecMatInto's stack lists of non-zero x
// entries; a longer x is compacted and run one chunk at a time.
const vecMatChunk = 64

// VecMatInto computes out = xᵀ·a without allocating. out must have length
// a.Cols and must not alias x or a's backing array. It compacts x's
// non-zero entries, in ascending k, into a stack list and runs axpyRows
// over it, so zero entries are skipped and the result is bit-identical to
// one axpyRow pass per non-zero entry.
func VecMatInto(out []float32, x []float32, a *Matrix) {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("tensor: vecmat %d · %dx%d", len(x), a.Rows, a.Cols))
	}
	if len(out) != a.Cols {
		panic(fmt.Sprintf("tensor: vecmat out %d, want %d", len(out), a.Cols))
	}
	checkBacking(a.Rows, a.Cols, len(a.Data))
	clear(out)
	var ks [vecMatChunk]int32
	var cs [vecMatChunk]float32
	for base := 0; base < len(x); base += vecMatChunk {
		n := 0
		for k, xv := range x[base:min(base+vecMatChunk, len(x))] {
			// Every entry is written and a zero is then overwritten by the
			// next one. n ≤ k < vecMatChunk, so the mask, which lets the
			// compiler drop the bounds checks, never changes an index.
			ks[n&(vecMatChunk-1)], cs[n&(vecMatChunk-1)] = int32(base+k), xv
			if xv != 0 {
				n++
			}
		}
		if i := axpyRows(out, a.Data, a.Rows, ks[:n], cs[:n]); uint(i) < uint(n) {
			panic(rowOutOfRange(ks[i&(vecMatChunk-1)], a.Rows))
		}
	}
}

// ConcatInto writes [a ; b] into out, which must have length len(a)+len(b).
func ConcatInto(out, a, b []float32) {
	if len(out) != len(a)+len(b) {
		panic(fmt.Sprintf("tensor: concat %d + %d into %d", len(a), len(b), len(out)))
	}
	copy(out, a)
	copy(out[len(a):], b)
}

// RowWorkers returns the number of goroutines ParallelRows will use for n
// rows and the given worker budget: min(workers, n), with workers < 1
// selecting GOMAXPROCS. Callers size per-worker scratch with it.
func RowWorkers(n, workers int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelRows partitions rows [0, n) into contiguous chunks and fans them
// across RowWorkers(n, workers) goroutines; fn(worker, lo, hi) processes one
// chunk and may be called several times per worker (chunks are claimed from
// a shared counter, so stragglers self-balance). worker ids are dense in
// [0, RowWorkers(n, workers)), letting callers index per-worker scratch.
// With one worker, fn runs inline on the caller's goroutine — no goroutine
// is spawned and nothing is allocated.
//
// Row chunks are disjoint, so any function that writes only its own rows is
// deterministic — and bit-identical to a serial sweep — for every worker
// count.
func ParallelRows(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	nw := RowWorkers(n, workers)
	if nw == 1 {
		fn(0, 0, n)
		return
	}
	// 8 chunks per worker bounds claim traffic while keeping enough slack
	// for uneven per-row costs (power-law adjacency).
	chunk := n / (nw * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				hi := int(atomic.AddInt64(&next, int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
