package graph

import (
	"math"
	"slices"
	"testing"
)

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 400, 1)
	if g.NumVertices() != 100 || g.NumEdges() != 400 {
		t.Fatalf("sizes: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// No self-loops.
	for v := 0; v < 100; v++ {
		for _, u := range g.InNeighbors(v) {
			if int(u) == v {
				t.Fatalf("self-loop at %d", v)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := ErdosRenyi(50, 200, 7)
	b := ErdosRenyi(50, 200, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	for v := 0; v < 50; v++ {
		an, bn := a.InNeighbors(v), b.InNeighbors(v)
		if len(an) != len(bn) {
			t.Fatalf("vertex %d neighborhoods differ", v)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("vertex %d neighborhoods differ", v)
			}
		}
	}
}

func TestPreferentialAttachmentSkew(t *testing.T) {
	g := PreferentialAttachment(2000, 2, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p := ProfileOf(g)
	st := Stats(p)
	if st.Max < 4*int(math.Ceil(st.Mean)) {
		t.Fatalf("expected heavy tail: max=%d mean=%.1f", st.Max, st.Mean)
	}
	if st.Gini < 0.2 {
		t.Fatalf("expected skewed degrees, gini=%.3f", st.Gini)
	}
}

// One seed must give one graph at every attach count. Reading a new
// vertex's picks back from a set would reorder its endpoints, and with them
// every later pick, from run to run once it picks two or more.
func TestPreferentialAttachmentDeterministic(t *testing.T) {
	for _, attach := range []int{1, 2, 4} {
		a := PreferentialAttachment(2000, attach, 7)
		b := PreferentialAttachment(2000, attach, 7)
		if !slices.Equal(a.rowPtr, b.rowPtr) || !slices.Equal(a.colIdx, b.colIdx) {
			t.Fatalf("attach %d: two builds from seed 7 differ", attach)
		}
	}
}

func TestCitationLikeMatchesTargets(t *testing.T) {
	g := CitationLike(2708, 10556, 5)
	if g.NumVertices() != 2708 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	// CitationLike wires an undirected graph from a degree sequence of
	// m/2 in-edges; directed count should be within 2x of target scale.
	if g.NumEdges() < 4000 || g.NumEdges() > 12000 {
		t.Fatalf("|E| = %d far from 10556 target regime", g.NumEdges())
	}
}

func TestCommunityGraphMutualNeighbors(t *testing.T) {
	g := CommunityGraph(1200, 20, 40, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < 10 {
		t.Fatalf("community graph too sparse: %.1f", g.AvgDegree())
	}
	rate := MutualNeighborRate(g, 2)
	if rate < 0.15 {
		t.Fatalf("expected high mutual-neighbor rate, got %.3f", rate)
	}
	// Citation graphs must have a much lower rate — this contrast is what
	// drives the Reddit-vs-rest redundancy results.
	cite := CitationLike(1200, 4000, 9)
	if cr := MutualNeighborRate(cite, 2); cr > rate {
		t.Fatalf("citation mutual rate %.3f >= community %.3f", cr, rate)
	}
}

func TestFromDegreeSequenceExact(t *testing.T) {
	deg := []int32{3, 0, 5, 1, 2}
	g := FromDegreeSequence("seq", deg, 11)
	for v, d := range deg {
		if g.InDegree(v) != int(d) {
			t.Fatalf("vertex %d degree %d, want %d", v, g.InDegree(v), d)
		}
	}
}

func TestPathAndStarShapes(t *testing.T) {
	p := Path(4)
	if p.NumEdges() != 3 || p.InDegree(0) != 0 || p.InDegree(3) != 1 {
		t.Fatalf("path wrong: %v", p)
	}
	s := Star(6)
	if s.InDegree(0) != 5 || s.NumEdges() != 5 {
		t.Fatalf("star wrong: %v", s)
	}
}

// MutualNeighborRate estimates, over up to sampleEdges randomly chosen
// aggregation edges, the fraction of (source, destination) feature transfers
// that are redundant because the source also appears in another destination's
// neighborhood alongside at least `minShared` common companions. This mirrors
// the profiling the paper reports for Reddit (75.5 % of aggregation
// operations removable).
//
// The estimator is intentionally simple: for each vertex v it counts how many
// of v's in-edges fall in a shared run with the in-edges of a randomly chosen
// co-neighbor destination. Exact HAG-style redundancy is computed by
// internal/redundancy; this is the cheap statistic used for dataset tests.
func MutualNeighborRate(g *Graph, minShared int) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	n := g.NumVertices()
	var shared, total int64
	for v := 0; v < n; v++ {
		nv := g.InNeighbors(v)
		if len(nv) < minShared {
			total += int64(len(nv))
			continue
		}
		// Compare against one of v's own neighbors: destinations that
		// are themselves adjacent are exactly the pairs likely to share
		// aggregation sources (deterministic pick keeps tests stable).
		w := int(nv[len(nv)/2])
		if w == v {
			w = int(nv[0])
		}
		common := intersectionSize(nv, g.InNeighbors(w))
		if common >= minShared {
			shared += int64(common)
		}
		total += int64(len(nv))
	}
	return float64(shared) / float64(total)
}

// intersectionSize counts common elements of two sorted slices.
func intersectionSize(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
