package shard

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"scale/internal/fault"
)

func workerNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("worker-%c:810%d", 'a'+i, i)
	}
	return out
}

// NewPool refuses a worker list it could not route over: none at all, an
// address with no host (which would post to "http:///v1/shard/load"), or two
// addresses that name one base URL, a trailing "/" included.
func TestNewPoolValidation(t *testing.T) {
	for _, workers := range [][]string{
		nil,
		{"a", ""},
		{"a", "b", "a"},
		{""},
		{"a:1", "", "b:1"},
		{"http://"},
		{"a:1", "http://a:1"},
		{"a:1/", "a:1"},
	} {
		if _, err := NewPool(PoolConfig{Workers: workers}); !errors.Is(err, fault.ErrBadConfig) {
			t.Fatalf("workers %q: err = %v, want ErrBadConfig", workers, err)
		}
	}
}

// At 1k keys over 4 workers the busiest must hold at most 1.25× the average
// and the idlest at least average/1.25. The bound is pinned so a hash change
// that degrades rank's spread fails loudly.
func TestRingDistributionBounds(t *testing.T) {
	nodes := workerNames(4)
	const keys = 1000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[rank(fmt.Sprintf("session-%d#shard%d", i/4, i%4), nodes)[0]]++
	}
	avg := float64(keys) / 4
	for _, n := range nodes {
		c := counts[n]
		if float64(c) > 1.25*avg {
			t.Fatalf("node %s holds %d keys, above 1.25×avg (%.0f)", n, c, 1.25*avg)
		}
		if float64(c) < avg/1.25 {
			t.Fatalf("node %s holds %d keys, below avg/1.25 (%.0f)", n, c, avg/1.25)
		}
	}
}

// Minimal churn: a joining worker only steals keys (everything that moves,
// moves to it); a leaving worker only sheds its own keys (nothing else moves).
func TestRingMinimalChurn(t *testing.T) {
	nodes := workerNames(4)
	const keys = 1000
	owner := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		owner[k] = rank(k, nodes)[0]
	}

	grown := append(slices.Clone(nodes), "worker-new:8199")
	moved := 0
	for k, was := range owner {
		now := rank(k, grown)[0]
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
	shrunk := slices.Delete(slices.Clone(nodes), 1, 2)
	for k, was := range owner {
		now := rank(k, shrunk)[0]
		if was == victim {
			if now == victim {
				t.Fatalf("leave kept %s on removed node", k)
			}
		} else if now != was {
			t.Fatalf("leave moved %s from %s to %s though %s left", k, was, now, victim)
		}
	}
}

// rank lists every worker once, starting at the key's owner whatever order
// the workers are given in — the failover candidate order the pool walks when
// a worker is down. Without the owner, the next-ranked worker owns the key.
func TestRingSuccessors(t *testing.T) {
	nodes := workerNames(5)
	reversed := slices.Clone(nodes)
	slices.Reverse(reversed)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("s-%d", i)
		succ := rank(key, nodes)
		if len(succ) != 5 {
			t.Fatalf("%d successors, want all 5", len(succ))
		}
		if owner := rank(key, reversed)[0]; succ[0] != owner {
			t.Fatalf("first successor %s != owner %s", succ[0], owner)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate successor %s", s)
			}
			seen[s] = true
		}
		rest := slices.DeleteFunc(slices.Clone(nodes), func(n string) bool { return n == succ[0] })
		if next := rank(key, rest)[0]; next != succ[1] {
			t.Fatalf("owner %s gone: key moved to %s, want its second successor %s", succ[0], next, succ[1])
		}
	}
}
