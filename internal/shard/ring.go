package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"scale/internal/fault"
)

// defaultVNodes is the virtual-node count per physical node: enough points
// on the circle that 1k keys spread within ±25% of even (pinned by
// TestRingDistributionBounds) while keeping a lookup a ~11-step binary
// search.
const defaultVNodes = 256

// Ring is a consistent-hash ring over named nodes (worker addresses). Each
// node is hashed onto the circle at defaultVNodes points; a key maps to the
// first vnode clockwise from its hash. Adding or removing one node therefore
// moves only the keys adjacent to that node's vnodes — sessions keep hitting
// the same workers (warm session caches) through pool membership changes.
//
// A Ring is immutable after construction; a membership change builds a new
// Ring with NewRing, which is what makes the minimal-churn property testable
// and the ring lock-free to read.
type Ring struct {
	vnodes []vnode
	nodes  []string
}

type vnode struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given nodes with defaultVNodes virtual
// nodes each. Empty node lists and duplicate names are typed input errors.
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one node: %w", fault.ErrBadConfig)
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			return nil, fmt.Errorf("shard: ring node %q empty or duplicate: %w", n, fault.ErrBadConfig)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < defaultVNodes; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].node < r.vnodes[j].node
	})
	sort.Strings(r.nodes)
	return r, nil
}

// Successors returns up to n distinct nodes in clockwise ring order starting
// at key's owner — the failover candidate sequence: the pool tries them in
// order, so a down worker's load spills to the next node on the circle and
// returns home when it recovers.
func (r *Ring) Successors(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(out) < n && i < len(r.vnodes); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.node] {
			seen[v.node] = true
			out = append(out, v.node)
		}
	}
	return out
}

// hash64 is FNV-64a with a splitmix64-style finalizer. Raw FNV avalanches
// poorly on short, similar strings ("host#0", "host#1", …): the vnode points
// cluster and 1k keys land up to 1.5× off even. The finalizer spreads those
// clusters; TestRingDistributionBounds pins the resulting evenness.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
