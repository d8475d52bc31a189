package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestParseEdgeList(t *testing.T) {
	in := `# a comment
% another comment

0 1
1 2
2 0
`
	g, err := ParseEdgeList(strings.NewReader(in), "tri", false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("sizes: %v", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 0) || g.HasEdge(1, 0) {
		t.Fatal("edges wrong")
	}
}

func TestParseEdgeListUndirected(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("0 3\n"), "u", true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatalf("undirected parse wrong: %v", g)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",    // too few fields
		"x 1\n",  // bad source
		"1 y\n",  // bad destination
		"-1 2\n", // negative id
		"3 -2\n", // negative id
	}
	for _, in := range cases {
		if _, err := ParseEdgeList(strings.NewReader(in), "bad", false); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 250, 7)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ParseEdgeList(&buf, g.Name(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip sizes: %v vs %v", got, g)
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.InNeighbors(v), got.InNeighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d adjacency differs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

func TestParseEmptyEdgeList(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("# nothing\n"), "empty", false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
}

// WriteEdgeList writes g as a directed edge list, the inverse of
// ParseEdgeList(..., false). Edges are emitted destination-major in
// adjacency order, preceded by a comment header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d vertices, %d directed edges\n", g.Name(), g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	}
	return bw.Flush()
}
