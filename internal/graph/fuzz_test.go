package graph

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"scale/internal/fault"
)

// ErrBadGraphSentinel aliases the typed sentinel every loader rejection
// must wrap, so the fuzz targets double as error-classification tests.
var ErrBadGraphSentinel = fault.ErrBadGraph

// FuzzParseEdgeList: the parser must never panic, every accepted graph
// must satisfy the structural invariants, and every rejection must carry
// the typed bad-input sentinel.
func FuzzParseEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("")
	f.Add("999999 0\n")
	f.Add("1 2 3 extra fields\n")
	f.Add("-1 0\n")
	f.Add("0 -7\n")
	f.Add("2147483648 0\n") // beyond MaxVertexID
	f.Add("500000000 0000") // beyond it too: once a 6 GB graph
	f.Add("0 1048575\n")    // at MaxVertexID: 1<<20 vertices
	f.Add("x y\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseEdgeList(strings.NewReader(input), "fuzz", false)
		if err != nil {
			if !errors.Is(err, ErrBadGraphSentinel) {
				t.Fatalf("rejection must wrap fault.ErrBadGraph, got: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails invariants: %v", err)
		}
	})
}

// FuzzDecode: the binary decoder must reject corrupt streams without
// panicking, allocate at most 4·len(data) + 64 KiB, and accepted graphs
// must validate. Truncation seeds cover every prefix-cut class: mid-magic,
// mid-header, mid-rowPtr, mid-colIdx.
func FuzzDecode(f *testing.F) {
	seed := Encode(Path(5))
	f.Add(seed)
	f.Add([]byte("SCG1garbage"))
	f.Add([]byte{})
	for _, cut := range []int{2, 6, 12, len(seed) / 2, len(seed) - 3} {
		if cut > 0 && cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Decode(data)
		runtime.ReadMemStats(&after)
		if d, budget := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(data))+64<<10; d > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), d, budget)
		}
		if err != nil {
			if !errors.Is(err, ErrBadGraphSentinel) {
				t.Fatalf("rejection must wrap fault.ErrBadGraph, got: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph fails invariants: %v", err)
		}
	})
}

// FuzzParseFeatures: the feature parser must never panic, never accept a
// non-finite value or a ragged matrix, and reject with typed errors.
func FuzzParseFeatures(f *testing.F) {
	f.Add("1.0 2.0\n3.0 4.0\n")
	f.Add("# header\n0.5\n")
	f.Add("")
	f.Add("nan nan\n")
	f.Add("1 2\n3\n")
	f.Add("+Inf 0\n")
	f.Add("1e40 0\n") // overflows float32 → ParseFloat range error
	f.Fuzz(func(t *testing.T, input string) {
		rows, err := ParseFeatures(strings.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrBadGraphSentinel) {
				t.Fatalf("rejection must wrap fault.ErrBadGraph, got: %v", err)
			}
			return
		}
		if len(rows) == 0 {
			t.Fatal("accepted an empty matrix")
		}
		for i, row := range rows {
			if len(row) != len(rows[0]) {
				t.Fatalf("accepted ragged row %d", i)
			}
			for _, v := range row {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("accepted non-finite value %v", v)
				}
			}
		}
	})
}
