package graph

import (
	"testing"
	"testing/quick"
)

func TestSyntheticProfileExactTotals(t *testing.T) {
	f := func(seedRaw int64, vRaw, eRaw uint16) bool {
		v := int(vRaw%500) + 1
		e := int64(eRaw)
		p := SyntheticProfile("prop", v, e, 0.7, seedRaw)
		return p.NumVertices() == v && p.NumEdges() == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticProfileDeterminism(t *testing.T) {
	a := SyntheticProfile("x", 100, 500, 0.6, 42)
	b := SyntheticProfile("x", 100, 500, 0.6, 42)
	for i := range a.Degrees {
		if a.Degrees[i] != b.Degrees[i] {
			t.Fatal("profile not deterministic")
		}
	}
}

func TestSyntheticProfileSkewOrdering(t *testing.T) {
	flat := SyntheticProfile("flat", 2000, 20000, 0.0, 1)
	skewed := SyntheticProfile("skew", 2000, 20000, 1.0, 1)
	if skewed.Gini() <= flat.Gini() {
		t.Fatalf("gini(skew)=%.3f should exceed gini(flat)=%.3f", skewed.Gini(), flat.Gini())
	}
	if skewed.MaxDegree() <= flat.MaxDegree() {
		t.Fatalf("max(skew)=%d should exceed max(flat)=%d", skewed.MaxDegree(), flat.MaxDegree())
	}
}

func TestProfileOfGraph(t *testing.T) {
	g := Star(5)
	p := ProfileOf(g)
	if p.NumEdges() != 4 || p.MaxDegree() != 4 {
		t.Fatalf("ProfileOf: %v", p)
	}
}

func TestGiniBounds(t *testing.T) {
	uniform := NewProfile("u", []int32{3, 3, 3, 3})
	if g := uniform.Gini(); g > 1e-9 {
		t.Fatalf("uniform gini = %v", g)
	}
	concentrated := NewProfile("c", []int32{0, 0, 0, 100})
	if g := concentrated.Gini(); g < 0.7 {
		t.Fatalf("concentrated gini = %v", g)
	}
	empty := NewProfile("e", nil)
	if empty.Gini() != 0 || empty.AvgDegree() != 0 {
		t.Fatal("empty profile should be all zeros")
	}
}

func TestNegativeDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProfile("bad", []int32{1, -1})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := ErdosRenyi(64, 256, 3)
	got, err := Decode(Encode(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != g.Name() || got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", got, g)
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.InNeighbors(v), got.InNeighbors(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode([]byte("XXXX0000")); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestDecodeTruncated(t *testing.T) {
	g := Path(10)
	raw := Encode(g)
	if _, err := Decode(raw[:len(raw)/2]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}
