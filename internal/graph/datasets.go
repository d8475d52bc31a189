package graph

import (
	"fmt"

	"scale/internal/fault"
	"scale/internal/par"
)

// Dataset describes one evaluation graph from Table II of the paper: its
// full-size structure statistics and the per-layer feature lengths of the
// 2-layer GNN evaluated on it.
//
// Timing simulation only needs the degree profile (Profile), which is
// generated at full size for every dataset. Functional and register-level
// simulation materialize adjacency (Build), which for Nell and Reddit is done
// at a documented scale factor — see DESIGN.md §1 for why the substitution
// preserves the evaluated behaviour.
type Dataset struct {
	Name        string
	Vertices    int
	Edges       int64 // directed edges (Table II counts)
	AvgDegree   float64
	FeatureDims []int   // e.g. Cora: 1433, 16, 7
	Skew        float64 // degree-distribution tail heaviness
	BuildScale  float64 // default scale factor for Build()
	seed        int64
	builder     func(vertices int, edges int, seed int64) *Graph
}

// Profile returns the full-size degree profile, deterministically seeded.
// It is built once per process for each distinct dataset and then shared:
// every call returns the same read-only *Profile, so the schedule and
// balance state the simulators memoize on it (Memoize) outlives the call
// that built it.
func (d Dataset) Profile() *Profile {
	p, _ := profiles.Get(profileKey{d.Name, d.Vertices, d.Edges, d.Skew, d.seed}, func() (*Profile, error) {
		return SyntheticProfile(d.Name, d.Vertices, d.Edges, d.Skew, d.seed), nil
	})
	return p
}

// profileKey is every Dataset field SyntheticProfile reads.
type profileKey struct {
	name     string
	vertices int
	edges    int64
	skew     float64
	seed     int64
}

// profiles holds one shared profile per profileKey.
var profiles par.Memo[profileKey, *Profile]

// Build materializes a graph at the dataset's default scale factor.
func (d Dataset) Build() *Graph { return d.BuildAt(d.BuildScale) }

// BuildAt materializes a graph with vertex/edge counts scaled by f (f = 1 is
// full size). The degree distribution shape and average degree are preserved.
func (d Dataset) BuildAt(f float64) *Graph {
	v := int(float64(d.Vertices) * f)
	if v < 8 {
		v = 8
	}
	e := int(float64(d.Edges) * f)
	if e < v {
		e = v
	}
	g := d.builder(v, e, d.seed)
	g.name = d.Name
	return g
}

// String summarizes the dataset.
func (d Dataset) String() string {
	return fmt.Sprintf("Dataset(%s: |V|=%d |E|=%d deg=%.1f dims=%v)",
		d.Name, d.Vertices, d.Edges, d.AvgDegree, d.FeatureDims)
}

// The Table II registry. Edge counts are directed-edge totals as reported in
// the paper. Build scale factors keep materialized graphs small enough for
// functional validation while timing runs always use full-size profiles.
var registry = map[string]Dataset{
	"cora": {
		Name: "cora", Vertices: 2708, Edges: 10556, AvgDegree: 3.9,
		FeatureDims: []int{1433, 16, 7}, Skew: 0.6, BuildScale: 1.0, seed: 101,
		builder: func(v, e int, seed int64) *Graph { return CitationLike(v, e, seed) },
	},
	"citeseer": {
		Name: "citeseer", Vertices: 3327, Edges: 9104, AvgDegree: 2.7,
		FeatureDims: []int{3703, 16, 6}, Skew: 0.55, BuildScale: 1.0, seed: 102,
		builder: func(v, e int, seed int64) *Graph { return CitationLike(v, e, seed) },
	},
	"pubmed": {
		Name: "pubmed", Vertices: 19717, Edges: 88648, AvgDegree: 4.5,
		FeatureDims: []int{500, 16, 3}, Skew: 0.6, BuildScale: 1.0, seed: 103,
		builder: func(v, e int, seed int64) *Graph { return CitationLike(v, e, seed) },
	},
	"nell": {
		Name: "nell", Vertices: 65755, Edges: 251550, AvgDegree: 3.8,
		FeatureDims: []int{61278, 64, 210}, Skew: 0.95, BuildScale: 0.05, seed: 104,
		builder: func(v, e int, seed int64) *Graph {
			attach := e / (2 * v)
			if attach < 1 {
				attach = 1
			}
			g := PreferentialAttachment(v, attach, seed)
			return g
		},
	},
	"reddit": {
		Name: "reddit", Vertices: 232965, Edges: 114615892, AvgDegree: 492,
		FeatureDims: []int{602, 64, 41}, Skew: 0.35, BuildScale: 0.004, seed: 105,
		builder: func(v, e int, seed int64) *Graph {
			deg := e / v
			if deg < 2 {
				deg = 2
			}
			return CommunityGraph(v, v/64+1, deg, seed)
		},
	},
}

// ByName returns the dataset with the given (lower-case) name.
func ByName(name string) (Dataset, error) {
	d, ok := registry[name]
	if !ok {
		return Dataset{}, fmt.Errorf("graph: unknown dataset %q (have %v): %w", name, DatasetNames(), fault.ErrBadConfig)
	}
	return d, nil
}

// MustByName is ByName for static names; panics on unknown datasets.
func MustByName(name string) Dataset {
	d, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return d
}

// DatasetNames lists the registry in the paper's presentation order.
func DatasetNames() []string {
	return []string{"cora", "citeseer", "pubmed", "nell", "reddit"}
}

// AllDatasets returns the registry in presentation order.
func AllDatasets() []Dataset {
	names := DatasetNames()
	out := make([]Dataset, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}
