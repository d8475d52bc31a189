package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"scale/internal/fault"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(3, 1)
	b.AddEdge(1, 0)
	g := b.Build("t")
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("sizes: %v", g)
	}
	if g.InDegree(1) != 3 || g.InDegree(0) != 1 || g.InDegree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", g.InDegree(1), g.InDegree(0), g.InDegree(2))
	}
	nbrs := g.InNeighbors(1)
	if len(nbrs) != 3 || nbrs[0] != 0 || nbrs[1] != 2 || nbrs[2] != 3 {
		t.Fatalf("neighbors of 1 not sorted: %v", nbrs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FromCSRRows checks the row pointers and the rows it is handed, as dyn's
// rebuild hands it the rows a batch wrote: a listed row left unsorted, or
// holding an id outside the graph, is refused with fault.ErrBadGraph, and
// so are broken row pointers whatever rows are listed.
func TestFromCSRRowsChecksListedRows(t *testing.T) {
	// Three vertices; row 1 is {0, 2}.
	good := func() ([]int32, []int32) { return []int32{0, 1, 3, 4}, []int32{2, 0, 2, 1} }
	for _, tc := range []struct {
		name  string
		edit  func(rowPtr, colIdx []int32)
		rows  []int32
		valid bool
	}{
		{"valid", func(_, _ []int32) {}, []int32{0, 1, 2}, true},
		{"unsorted", func(_, c []int32) { c[1], c[2] = 2, 0 }, []int32{1}, false},
		{"id past the end", func(_, c []int32) { c[2] = 3 }, []int32{1}, false},
		{"negative id", func(_, c []int32) { c[1] = -1 }, []int32{1}, false},
		{"pointer past |E|", func(p, _ []int32) { p[2] = 5 }, nil, false},
		{"falling pointer", func(p, _ []int32) { p[2] = 0 }, nil, false},
		{"short |E|", func(p, _ []int32) { p[3] = 3 }, nil, false},
	} {
		rowPtr, colIdx := good()
		tc.edit(rowPtr, colIdx)
		_, err := FromCSRRows("t", rowPtr, colIdx, tc.rows)
		if tc.valid && err != nil || !tc.valid && !errors.Is(err, fault.ErrBadGraph) {
			t.Errorf("%s: err = %v, want ErrBadGraph: %v", tc.name, err, !tc.valid)
		}
		if _, err := FromCSR("t", rowPtr, colIdx); !tc.valid && !errors.Is(err, fault.ErrBadGraph) {
			t.Errorf("%s: FromCSR accepted it", tc.name)
		}
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestHasEdge(t *testing.T) {
	g := Path(5)
	if !g.HasEdge(2, 3) {
		t.Fatal("path edge missing")
	}
	if g.HasEdge(3, 2) {
		t.Fatal("reverse edge should not exist")
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(3)
	b.AddUndirected(0, 2)
	g := b.Build("u")
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("undirected edge incomplete")
	}
}

func TestDegreesAndAvg(t *testing.T) {
	g := Star(5)
	if g.InDegree(0) != 4 {
		t.Fatalf("star degrees: %d", g.InDegree(0))
	}
	ds := g.Degrees()
	if ds[0] != 4 || ds[1] != 0 {
		t.Fatalf("Degrees: %v", ds)
	}
	if g.AvgDegree() != 0.8 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(4)
	if g.NumEdges() != 12 {
		t.Fatalf("complete(4) edges = %d", g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.InDegree(v) != 3 {
			t.Fatalf("degree of %d = %d", v, g.InDegree(v))
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build("empty")
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph misbehaves")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiEdgesRetained(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build("multi")
	if g.InDegree(1) != 2 {
		t.Fatalf("multi-edge collapsed: %d", g.InDegree(1))
	}
}

// Property: Build preserves exactly the multiset of edges added, as
// in-degree totals, for arbitrary random edge sets.
func TestBuildPreservesEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		m := rng.Intn(200)
		b := NewBuilder(n)
		want := make([]int, n)
		for i := 0; i < m; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			b.AddEdge(s, d)
			want[d]++
		}
		g := b.Build("prop")
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if g.InDegree(v) != want[v] {
				return false
			}
		}
		return g.NumEdges() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// HasEdge reports whether src → dst exists, by binary search on the sorted
// adjacency list of dst.
func (g *Graph) HasEdge(src, dst int) bool {
	row := g.InNeighbors(dst)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(src) })
	return i < len(row) && row[i] == int32(src)
}

// Complete returns the complete directed graph on n vertices (no self-loops).
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build(fmt.Sprintf("complete-%d", n))
}
