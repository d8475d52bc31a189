package graph

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	names := DatasetNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 datasets, got %v", names)
	}
	if len(sortedRegistryNames()) != 5 {
		t.Fatal("registry size mismatch")
	}
	for _, n := range names {
		d, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.FeatureDims)-1 != 2 {
			t.Fatalf("%s: expected 2-layer dims, got %v", n, d.FeatureDims)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustByName("bogus")
}

// Every registry dataset builds its profile once: repeated calls, and
// copies of the Dataset value, get the same *Profile.
func TestProfileShared(t *testing.T) {
	for _, d := range AllDatasets() {
		if p := d.Profile(); p != MustByName(d.Name).Profile() {
			t.Fatalf("%s: two Profile calls returned different profiles", d.Name)
		}
	}
}

// Concurrent first calls share one build and agree with a direct
// SyntheticProfile; a dataset differing in any field SyntheticProfile reads
// gets its own profile. Run under -race, this is the cache's data-race check.
func TestProfileConcurrentFirstCalls(t *testing.T) {
	d := MustByName("cora")
	d.seed = 7919 // a key no other test builds, so these are first calls
	const callers = 8
	got := make([]*Profile, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = d.Profile()
		}()
	}
	start.Done()
	done.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different profile", i)
		}
	}
	want := SyntheticProfile(d.Name, d.Vertices, d.Edges, d.Skew, d.seed)
	if !slices.Equal(got[0].Degrees, want.Degrees) {
		t.Fatal("cached profile differs from SyntheticProfile")
	}
	if got[0] == MustByName("cora").Profile() {
		t.Fatal("a dataset with another seed shares the registry's profile")
	}
}

// Table II anchor: the full-size profiles must match the published vertex,
// edge, and average-degree figures exactly (counts) or closely (avg degree).
func TestProfilesMatchTableII(t *testing.T) {
	want := map[string]struct {
		v   int
		e   int64
		avg float64
	}{
		"cora":     {2708, 10556, 3.9},
		"citeseer": {3327, 9104, 2.7},
		"pubmed":   {19717, 88648, 4.5},
		"nell":     {65755, 251550, 3.8},
		"reddit":   {232965, 114615892, 492},
	}
	for name, w := range want {
		d := MustByName(name)
		p := d.Profile()
		if p.NumVertices() != w.v {
			t.Errorf("%s: |V| = %d, want %d", name, p.NumVertices(), w.v)
		}
		if p.NumEdges() != w.e {
			t.Errorf("%s: |E| = %d, want %d", name, p.NumEdges(), w.e)
		}
		if math.Abs(p.AvgDegree()-w.avg)/w.avg > 0.05 {
			t.Errorf("%s: avg degree %.2f, want ~%.1f", name, p.AvgDegree(), w.avg)
		}
	}
}

func TestFeatureDimsMatchTableII(t *testing.T) {
	checks := map[string][]int{
		"cora":     {1433, 16, 7},
		"citeseer": {3703, 16, 6},
		"pubmed":   {500, 16, 3},
		"nell":     {61278, 64, 210},
		"reddit":   {602, 64, 41},
	}
	for name, dims := range checks {
		d := MustByName(name)
		if len(d.FeatureDims) != len(dims) {
			t.Fatalf("%s dims %v", name, d.FeatureDims)
		}
		for i := range dims {
			if d.FeatureDims[i] != dims[i] {
				t.Errorf("%s dim[%d] = %d, want %d", name, i, d.FeatureDims[i], dims[i])
			}
		}
	}
}

func TestBuildSmallDatasets(t *testing.T) {
	for _, name := range []string{"cora", "citeseer"} {
		d := MustByName(name)
		g := d.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() != d.Vertices {
			t.Fatalf("%s: built |V| = %d, want %d", name, g.NumVertices(), d.Vertices)
		}
	}
}

func TestBuildScaledLargeDatasets(t *testing.T) {
	for _, name := range []string{"nell", "reddit"} {
		d := MustByName(name)
		g := d.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() >= d.Vertices {
			t.Fatalf("%s: scaled build should be smaller than full (%d)", name, g.NumVertices())
		}
		if g.NumVertices() < 100 {
			t.Fatalf("%s: scaled build implausibly small: %d", name, g.NumVertices())
		}
	}
}

func TestRedditProfileSkewAndDegree(t *testing.T) {
	d := MustByName("reddit")
	p := d.Profile()
	st := Stats(p)
	if st.Mean < 400 || st.Mean > 600 {
		t.Fatalf("reddit mean degree %.1f outside expected band", st.Mean)
	}
	// Paper: Reddit shows high degree regularity relative to Nell.
	nell := Stats(MustByName("nell").Profile())
	if st.Gini >= nell.Gini {
		t.Fatalf("reddit gini %.3f should be below nell %.3f", st.Gini, nell.Gini)
	}
}

func TestBuildAtFloor(t *testing.T) {
	d := MustByName("cora")
	g := d.BuildAt(0.0001)
	if g.NumVertices() < 8 {
		t.Fatalf("BuildAt floor violated: %d", g.NumVertices())
	}
}

// sortedRegistryNames exists for deterministic error messages and tests.
func sortedRegistryNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
