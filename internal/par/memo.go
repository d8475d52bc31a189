// Package par holds the repository's two concurrency primitives: Memo, a
// per-key singleflight cache, and Pool, a bounded fan-out with panic
// containment and a deterministic first error. Every sweep, schedule memo
// and dataset cache in the repository goes through them (DESIGN.md §4d).
package par

import "sync"

// Memo computes one value per key and shares it read-only. The first Get of
// a key runs its build function; concurrent callers of the same key wait for
// that one computation, while callers of other keys proceed independently.
// Errors are cached with values: the repository's memoized computations are
// deterministic, so a retry would fail identically. A build that panics
// panics again for every later caller of its key (sync.OnceValues). The zero
// Memo is ready to use; a Memo must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() (V, error)
}

// Get returns the value for key, computing it with build on first use.
func (c *Memo[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	f, ok := c.m[key]
	if !ok {
		if c.m == nil {
			c.m = make(map[K]func() (V, error))
		}
		f = sync.OnceValues(build)
		c.m[key] = f
	}
	c.mu.Unlock()
	return f()
}
