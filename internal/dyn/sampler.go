package dyn

import (
	"fmt"
	"math/bits"
	"sort"

	"scale/internal/fault"
	"scale/internal/graph"
)

// Sampler draws GraphSAGE-style fixed-fanout neighborhoods: each vertex
// keeps at most Fanout in-neighbors per layer, capping per-request
// aggregation work on power-law hubs. Sampling is seeded per
// (request seed, layer, vertex) with a splitmix64 stream, so the sampled
// subgraph — and therefore the inference output — is byte-identical across
// worker counts, replays, and batch compositions: the choice for a vertex
// depends only on the seed triple, never on iteration order.
type Sampler struct {
	Fanout int
	Seed   uint64
}

// Validate checks the sampler's parameters.
func (s Sampler) Validate() error {
	if s.Fanout < 1 {
		return fmt.Errorf("dyn: sample fanout %d < 1: %w", s.Fanout, fault.ErrBadConfig)
	}
	return nil
}

// splitmix64 finalizer (Stafford mix 13): a bijective avalanche over the
// full 64-bit state, the standard seeding mix of SplitMix64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// smix is a splitmix64 stream.
type smix struct{ s uint64 }

func (r *smix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a deterministic value in [0, n). Multiply-shift (Lemire)
// range reduction; the negligible bias is irrelevant here — the contract is
// reproducibility, not statistical perfection.
func (r *smix) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// vertexStream seeds the per-(seed, layer, vertex) stream. The layer and
// vertex ids are mixed independently before combining so that adjacent
// triples do not produce correlated streams.
func vertexStream(seed uint64, layer int, v int32) smix {
	return smix{s: mix64(seed) ^ mix64(uint64(layer+1)<<32|uint64(uint32(v)))}
}

// SampleLayer builds the fanout-capped in-edge CSR of g for one layer:
// every vertex with in-degree ≤ fanout keeps its full row; larger rows keep
// a uniform fanout-subset chosen by Floyd's algorithm on the per-vertex
// stream. Rows stay ascending-sorted (positions are chosen, then mapped
// through the already-sorted base row), so the result is a valid CSR with
// the same vertex set.
func (s Sampler) SampleLayer(g *graph.Graph, layer int) (*graph.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	rowPtr := make([]int32, n+1)
	var sum int32
	for v := 0; v < n; v++ {
		d := g.InDegree(v)
		if d > s.Fanout {
			d = s.Fanout
		}
		rowPtr[v] = sum
		sum += int32(d)
	}
	rowPtr[n] = sum
	colIdx := make([]int32, sum)
	picks := make([]int, 0, s.Fanout)
	for v := 0; v < n; v++ {
		row := g.InNeighbors(v)
		out := colIdx[rowPtr[v]:rowPtr[v+1]]
		if len(row) <= s.Fanout {
			copy(out, row)
			continue
		}
		rng := vertexStream(s.Seed, layer, int32(v))
		picks = floydSample(picks[:0], &rng, len(row), s.Fanout)
		for i, p := range picks {
			out[i] = row[p]
		}
	}
	return graph.FromCSR(fmt.Sprintf("%s~f%d.l%d", g.Name(), s.Fanout, layer), rowPtr, colIdx)
}

// Sample draws one fanout-capped graph per layer, all over the same frozen
// base. Layer li of a forward pass aggregates over Sample(...)[li].
func (s Sampler) Sample(g *graph.Graph, layers int) ([]*graph.Graph, error) {
	if layers < 1 {
		return nil, fmt.Errorf("dyn: sampling %d layers: %w", layers, fault.ErrBadConfig)
	}
	out := make([]*graph.Graph, layers)
	for li := range out {
		sg, err := s.SampleLayer(g, li)
		if err != nil {
			return nil, err
		}
		out[li] = sg
	}
	return out, nil
}

// floydSample appends k distinct positions from [0, d) to dst (Floyd's
// subset-sampling algorithm: O(k) memory, each subset equiprobable under a
// perfect stream) and returns them ascending-sorted.
func floydSample(dst []int, rng *smix, d, k int) []int {
	for j := d - k; j < d; j++ {
		t := rng.intn(j + 1)
		seen := false
		for _, p := range dst {
			if p == t {
				seen = true
				break
			}
		}
		if seen {
			dst = append(dst, j)
		} else {
			dst = append(dst, t)
		}
	}
	sort.Ints(dst)
	return dst
}
