package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"scale/internal/fault"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("worker-%c:810%d", 'a'+i, i)
	}
	return out
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("empty ring: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewRing([]string{"a", ""}); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("empty node name: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewRing([]string{"a", "b", "a"}); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("duplicate node: err = %v, want ErrBadConfig", err)
	}
}

// ISSUE satellite: at 1k keys over 4 nodes the busiest node must hold at most
// 1.25× the average and the idlest at least average/1.25. 256 vnodes per node
// is what makes FNV's layout this even; the bound is pinned so a vnode-count
// or hash change that degrades spread fails loudly.
func TestRingDistributionBounds(t *testing.T) {
	r, err := NewRing(ringNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Successors(fmt.Sprintf("session-%d#shard%d", i/4, i%4), 1)[0]]++
	}
	avg := float64(keys) / 4
	for _, n := range r.Nodes() {
		c := counts[n]
		if float64(c) > 1.25*avg {
			t.Fatalf("node %s holds %d keys, above 1.25×avg (%.0f)", n, c, 1.25*avg)
		}
		if float64(c) < avg/1.25 {
			t.Fatalf("node %s holds %d keys, below avg/1.25 (%.0f)", n, c, avg/1.25)
		}
	}
}

// Minimal churn: a joining node only steals keys (everything that moves, moves
// to it); a leaving node only sheds its own keys (nothing else moves).
func TestRingMinimalChurn(t *testing.T) {
	nodes := ringNodes(4)
	base, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1000
	owner := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		owner[k] = base.Successors(k, 1)[0]
	}

	grown, err := NewRing(append(slices.Clone(nodes), "worker-new:8199"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k, was := range owner {
		now := grown.Successors(k, 1)[0]
		if now != was {
			moved++
			if now != "worker-new:8199" {
				t.Fatalf("join moved %s from %s to %s, not to the new node", k, was, now)
			}
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("join moved %d of %d keys, want ≈1/5", moved, keys)
	}

	victim := nodes[1]
	shrunk, err := NewRing(slices.Delete(slices.Clone(nodes), 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for k, was := range owner {
		now := shrunk.Successors(k, 1)[0]
		if was == victim {
			if now == victim {
				t.Fatalf("leave kept %s on removed node", k)
			}
		} else if now != was {
			t.Fatalf("leave moved %s from %s to %s though %s left", k, was, now, victim)
		}
	}
}

// Successors yields distinct nodes starting at the key's owner — the failover
// candidate order the pool walks when a worker is down.
func TestRingSuccessors(t *testing.T) {
	r, err := NewRing(ringNodes(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("s-%d", i)
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("%d successors, want 3", len(succ))
		}
		if owner := r.Successors(key, 1)[0]; succ[0] != owner {
			t.Fatalf("first successor %s != owner %s", succ[0], owner)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate successor %s", s)
			}
			seen[s] = true
		}
	}
	if got := r.Successors("x", 99); len(got) != 5 {
		t.Fatalf("over-asking yields %d nodes, want all 5", len(got))
	}
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }
