package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelMatMulInto computes out = a·b with output rows fanned across up to
// `workers` goroutines (workers < 1 selects GOMAXPROCS). Each output row is
// one VecMatInto call, so it runs the axpy4Row sweep (SSE2 on amd64) and is
// bit-identical to one axpyRow pass per non-zero a element in ascending k,
// and bit-identical for any worker count because each row is produced by
// the same serial kernel. It allocates only the row closure it hands to
// ParallelRows, plus the goroutines when workers > 1. out must be
// a.Rows × b.Cols and must not alias a or b.
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

// axpyRow computes o += alpha*brow over equal-length rows, 4-way unrolled in
// the slice-advance form (`len(x) >= 4` guard + constant indices + `x[4:]`
// step) — the one idiom Go 1.24's prove pass reduces to zero IsInBounds
// checks (verified by `make bce`; an index-offset unroll like `o[j+1]` is
// NOT eliminated). Each element is touched exactly once, so unrolling cannot
// reorder any float addition — results stay bit-identical to the rolled
// loop.
func axpyRow(o []float32, alpha float32, brow []float32) {
	o = o[:len(brow)]
	for len(brow) >= 4 && len(o) >= 4 {
		o[0] += alpha * brow[0]
		o[1] += alpha * brow[1]
		o[2] += alpha * brow[2]
		o[3] += alpha * brow[3]
		o = o[4:]
		brow = brow[4:]
	}
	o = o[:len(brow)]
	for j, bv := range brow {
		o[j] += alpha * bv
	}
}

// axpy4RowGeneric is the portable body of axpy4Row, which computes o += a0*r0
// + a1*r1 + a2*r2 + a3*r3 in one sweep over o. Every element is summed left
// to right, o + a0*r0 first, so it gets the same float32 products and sums
// in the same order as four successive axpyRow passes, and the result is
// bit-identical to them; the sweep only saves three loads and three stores
// of o per element. Each row must be at least len(o) long. axpy4Row runs
// this loop, or on amd64 its SSE2 version (kernels_amd64.s), which does the
// same multiply and add per lane.
func axpy4RowGeneric(o []float32, a0 float32, r0 []float32, a1 float32, r1 []float32,
	a2 float32, r2 []float32, a3 float32, r3 []float32) {
	r0, r1, r2, r3 = r0[:len(o)], r1[:len(o)], r2[:len(o)], r3[:len(o)]
	for i, v := range o {
		o[i] = v + a0*r0[i] + a1*r1[i] + a2*r2[i] + a3*r3[i]
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

// add4RowGeneric is the portable body of add4Row, which computes o += r0 +
// r1 + r2 + r3 in one sweep over o. Every element is summed left to right,
// o + r0 first, so it gets the same float32 sums in the same order as four
// successive addRow passes, and the result is bit-identical to them. Each
// row must be at least len(o) long. add4Row runs this loop, or on amd64
// its SSE2 version (kernels_amd64.s), which does the same add per lane.
func add4RowGeneric(o, r0, r1, r2, r3 []float32) {
	r0, r1, r2, r3 = r0[:len(o)], r1[:len(o)], r2[:len(o)], r3[:len(o)]
	for i, v := range o {
		o[i] = v + r0[i] + r1[i] + r2[i] + r3[i]
	}
}

// SumChain computes acc += Σ m.Row(rows[i]) in list order, the float32
// reduce chain and the float twin of QChain: four rows per add4Row sweep,
// the tail one addRow pass each, and no multiply. Every column adds its
// terms in list order, so the result is bit-identical to one addRow per
// row. The executor folds a linear-sum layer's per-source factor into the
// rows before the chain and applies the per-destination factor after it.
// acc must have length m.Cols.
func SumChain(acc []float32, m *Matrix, rows []int32) {
	if len(acc) != m.Cols {
		panic(fmt.Sprintf("tensor: sum chain acc %d for %d cols", len(acc), m.Cols))
	}
	for len(rows) >= 4 {
		add4Row(acc, m.Row(int(rows[0])), m.Row(int(rows[1])),
			m.Row(int(rows[2])), m.Row(int(rows[3])))
		rows = rows[4:]
	}
	for _, r := range rows {
		addRow(acc, m.Row(int(r)))
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

// VecMatInto computes out = xᵀ·a without allocating. out must have length
// a.Cols and must not alias x or a's backing array. Zero x entries are
// skipped; the others feed axpy4Row four at a time in ascending k, so the
// result is bit-identical to one axpyRow pass per non-zero entry.
func VecMatInto(out []float32, x []float32, a *Matrix) {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("tensor: vecmat %d · %dx%d", len(x), a.Rows, a.Cols))
	}
	if len(out) != a.Cols {
		panic(fmt.Sprintf("tensor: vecmat out %d, want %d", len(out), a.Cols))
	}
	for i := range out {
		out[i] = 0
	}
	var ks [4]int
	var xs [4]float32
	n := 0
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		ks[n&3], xs[n&3] = k, xv
		n++
		if n&3 == 0 {
			axpy4Row(out,
				xs[0], a.Row(ks[0]), xs[1], a.Row(ks[1]),
				xs[2], a.Row(ks[2]), xs[3], a.Row(ks[3]))
		}
	}
	for i, k := range ks[:n&3] {
		axpyRow(out, xs[i], a.Row(k))
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
