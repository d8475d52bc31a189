package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"scale/internal/par"
)

// Profile is the structure-only view of a graph: the per-vertex in-degree
// sequence. Scheduling (Algorithm 1 of the paper) and the task-level timing
// engine depend only on degrees, so full-size datasets such as Reddit
// (114M edges) can be simulated without materializing adjacency lists.
//
// A Profile is immutable after construction and safe for concurrent use;
// scalar statistics (edge total, max degree, Gini) are computed once, and
// derived structure-only state — the shared vertex slice and anything the
// simulators attach through Memoize — is built lazily, once. Do not mutate
// Degrees after handing the profile out. A mutable graph (internal/dyn)
// hands out frozen snapshots instead; profile one with ProfileOf.
type Profile struct {
	Name    string
	Degrees []int32
	edges   int64
	maxDeg  int32

	giniOnce sync.Once
	gini     float64

	vertsOnce sync.Once
	verts     []int32

	memo par.Memo[any, any]
}

// NewProfile wraps a degree sequence.
func NewProfile(name string, degrees []int32) *Profile {
	p := &Profile{Name: name, Degrees: degrees}
	for _, d := range degrees {
		if d < 0 {
			panic(fmt.Sprintf("graph: negative degree %d in profile %q", d, name))
		}
		p.edges += int64(d)
		if d > p.maxDeg {
			p.maxDeg = d
		}
	}
	return p
}

// ProfileOf extracts the degree profile of a materialized graph.
func ProfileOf(g *Graph) *Profile {
	return NewProfile(g.Name(), g.Degrees())
}

// NumVertices returns |V|.
func (p *Profile) NumVertices() int { return len(p.Degrees) }

// NumEdges returns |E| (the sum of in-degrees).
func (p *Profile) NumEdges() int64 { return p.edges }

// AvgDegree returns |E|/|V|.
func (p *Profile) AvgDegree() float64 {
	if len(p.Degrees) == 0 {
		return 0
	}
	return float64(p.edges) / float64(len(p.Degrees))
}

// MaxDegree returns the maximum in-degree (cached at construction; the
// timing engine reads it per layer).
func (p *Profile) MaxDegree() int { return int(p.maxDeg) }

// Vertices returns the profile's vertex ids 0..|V|-1 as one shared,
// read-only backing slice, built on first use. Batchings subslice it
// (see Batches), so no simulation layer re-materializes the id range.
func (p *Profile) Vertices() []int32 {
	p.vertsOnce.Do(func() {
		vs := make([]int32, len(p.Degrees))
		for i := range vs {
			vs[i] = int32(i)
		}
		p.verts = vs
	})
	return p.verts
}

// Batches splits the profile's vertices into consecutive scheduling batches
// of size b (b < 1 means one batch). The batches are subslices of the shared
// Vertices slice — no per-call vertex materialization.
func (p *Profile) Batches(b int) [][]int32 {
	all := p.Vertices()
	n := len(all)
	if b < 1 {
		b = n
	}
	var out [][]int32
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		out = append(out, all[start:end])
	}
	return out
}

// Memoize returns the value for key on profile p, computing it with build
// at most once per profile: concurrent callers with the same key share one
// computation, and errors are cached with values (par.Memo). Keys must be
// comparable and each key always read as the same V (callers use a private
// key type); values must be safe to share read-only. The simulators use this
// to attach schedule state that depends only on the degree sequence —
// computed once, reused across layers, accelerators, and sweep workers.
func Memoize[V any](p *Profile, key any, build func() (V, error)) (V, error) {
	v, err := p.memo.Get(key, func() (any, error) { return build() })
	out, _ := v.(V)
	return out, err
}

// String describes the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("Profile(%s: |V|=%d |E|=%d avg=%.1f)", p.Name, p.NumVertices(), p.NumEdges(), p.AvgDegree())
}

// SyntheticProfile builds a deterministic power-law-flavored degree sequence
// with exactly the requested vertex and edge counts. It draws degrees from a
// discrete Pareto-like distribution with the given skew (higher skew ⇒
// heavier tail), then rescales so the total equals edges. A skew of 0 yields
// a near-uniform sequence.
func SyntheticProfile(name string, vertices int, edges int64, skew float64, seed int64) *Profile {
	if vertices <= 0 {
		return NewProfile(name, nil)
	}
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, vertices)
	var total float64
	for i := range weights {
		// Zipf-style weight with random jitter; rank-based so the
		// sequence is reproducible and has a controlled tail.
		rank := float64(i + 1)
		w := 1.0
		if skew > 0 {
			w = 1.0 / math.Pow(rank, skew)
		}
		w *= 0.5 + rng.Float64() // jitter in [0.5, 1.5)
		weights[i] = w
		total += w
	}
	degrees := make([]int32, vertices)
	var assigned int64
	for i, w := range weights {
		d := int64(w / total * float64(edges))
		degrees[i] = int32(d)
		assigned += d
	}
	// Distribute the rounding remainder one edge at a time over random
	// vertices (or trim if we overshot, which cannot happen with floor).
	for assigned < edges {
		degrees[rng.Intn(vertices)]++
		assigned++
	}
	// Shuffle so vertex id is uncorrelated with degree, as in real data.
	rng.Shuffle(vertices, func(i, j int) { degrees[i], degrees[j] = degrees[j], degrees[i] })
	return NewProfile(name, degrees)
}

// Gini returns the Gini coefficient of the degree sequence, a scalar measure
// of workload skew used by the motivation study (Fig. 1a): 0 is perfectly
// uniform, →1 is maximally concentrated. The sorted pass runs once per
// profile; repeated calls return the cached coefficient.
func (p *Profile) Gini() float64 {
	p.giniOnce.Do(func() { p.gini = p.computeGini() })
	return p.gini
}

func (p *Profile) computeGini() float64 {
	n := len(p.Degrees)
	if n == 0 || p.edges == 0 {
		return 0
	}
	sorted := make([]int32, n)
	copy(sorted, p.Degrees)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var cum, weighted float64
	for i, d := range sorted {
		cum += float64(d)
		weighted += float64(i+1) * float64(d)
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}
