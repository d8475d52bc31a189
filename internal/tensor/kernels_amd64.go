//go:build amd64 && !race

package tensor

import "fmt"

// On amd64 the row-list kernels run the AVX2 loops in kernels_amd64.s when
// the CPU has AVX2 and the OS saves its YMM state, which useAVX2 records
// once at start-up; other amd64 hosts run the portable loops. Race builds
// take the portable loops (kernels_noasm.go) because the race detector
// cannot see memory that assembly touches. Each wrapper bounds its slices
// exactly as the portable loop bounds itself, and the assembly touches
// only the elements those lengths allow; every kernel also reads its data
// rows up to the bound its caller checks once per call (checkBacking), and
// checks every row index itself. The declarations carry //go:noescape so
// callers' scratch stays on the stack.

// useAVX2 selects the AVX2 bodies. Only tests change it after start-up.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether CPUID leaf 1 shows OSXSAVE and AVX, XCR0 shows
// the OS saving the XMM and YMM state, and CPUID leaf 7 shows AVX2.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, xmmYMM, avx2 = 1 << 27, 1 << 28, 6, 1 << 5
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&xmmYMM != xmmYMM {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// KernelFamily names the row-list kernels this process runs: "avx2" or
// "portable".
func KernelFamily() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func sumRowsAVX2(o, data []float32, nrows int, rows []int32) int

//go:noescape
func axpyRowsAVX2(o, data []float32, nrows int, rows []int32, coefs []float32) int

//go:noescape
func qsumRowsAVX2(o []int32, data []byte, nrows int, rows []int32) int

//go:noescape
func qgemvRowsAVX2(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int

//go:noescape
func qgemv8DenseAVX2(acc []int32, w []int8, stride int, x []int8)

func sumRows(o, data []float32, nrows int, rows []int32) int {
	if useAVX2 {
		return sumRowsAVX2(o, data, nrows, rows)
	}
	return sumRowsGeneric(o, data, nrows, rows)
}

func axpyRows(o, data []float32, nrows int, rows []int32, coefs []float32) int {
	if useAVX2 {
		return axpyRowsAVX2(o, data, nrows, rows, coefs[:len(rows)])
	}
	return axpyRowsGeneric(o, data, nrows, rows, coefs)
}

// qsumRows sums whole 8-column chunks, as qsumRowsGeneric does.
func qsumRows(acc []int32, data []byte, nrows int, rows []int32) int {
	if useAVX2 {
		return qsumRowsAVX2(acc[:len(acc)&^7], data, nrows, rows)
	}
	return qsumRowsGeneric(acc, data, nrows, rows)
}

func qgemvRows(acc []int32, w []int8, stride, nrows int, rows, pairs []int32) int {
	if useAVX2 {
		return qgemvRowsAVX2(acc, w, stride, nrows, rows, pairs[:len(rows)])
	}
	return qgemvRowsGeneric(acc, w, stride, nrows, rows, pairs)
}

// qgemv8Dense walks x's whole pairs, as qgemv8DenseGeneric does. The
// assembly's two overlapping 4-column halves need 4 to 8 columns.
func qgemv8Dense(acc []int32, w []int8, stride int, x []int8) {
	if uint(len(acc)-4) > 4 {
		panic(fmt.Sprintf("tensor: dense GEMV walk of %d columns", len(acc)))
	}
	if useAVX2 {
		qgemv8DenseAVX2(acc, w, stride, x[:len(x)&^1])
		return
	}
	qgemv8DenseGeneric(acc, w, stride, x)
}
