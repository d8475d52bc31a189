package httpapi

import (
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// SessionKey is the one name of a (model, dims, precision) session: the
// cache key of both tiers and the shard pool's ring-routing key, e.g.
// "gcn/4/8/4/fp32". Callers normalize the precision first, so "" never
// reaches the key and equivalent requests share one session.
func SessionKey(model string, dims []int, precision string) string {
	key := model
	for _, d := range dims {
		key += "/" + strconv.Itoa(d)
	}
	return key + "/" + precision
}

// Sessions is a bounded LRU cache of per-session values under SessionKey:
// the front caches a session with its micro-batcher, the worker a bare
// session. Eviction only drops the map entry, so a value must stay usable
// by callers that still hold it.
type Sessions[V any] struct {
	max              int
	build            func(model string, dims []int, precision string) (V, error)
	created, evicted *atomic.Int64

	mu    sync.Mutex
	vals  map[string]V
	order []string // keys, least recently used first
}

// NewSessions returns a cache of at most max values made by build. created
// and evicted count the values it inserts and evicts.
func NewSessions[V any](max int, build func(model string, dims []int, precision string) (V, error), created, evicted *atomic.Int64) *Sessions[V] {
	return &Sessions[V]{max: max, build: build, created: created, evicted: evicted, vals: make(map[string]V)}
}

// Get returns the cached value for (model, dims, precision), building it on
// a miss and evicting the least recently used value when the cache is full.
// The build runs outside the lock: constructing a model is real work and
// must not serialize unrelated traffic. A racing duplicate build is benign,
// because sessions are deterministic, and the first insert wins. A failed
// build caches nothing.
func (c *Sessions[V]) Get(model string, dims []int, precision string) (V, error) {
	key := SessionKey(model, dims, precision)
	c.mu.Lock()
	v, ok := c.touchLocked(key)
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := c.build(model, dims, precision)
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.touchLocked(key); ok {
		return v, nil
	}
	if len(c.order) >= c.max && len(c.order) > 0 {
		delete(c.vals, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
		c.evicted.Add(1)
	}
	c.vals[key] = v
	c.order = append(c.order, key)
	c.created.Add(1)
	return v, nil
}

// touchLocked returns the value under key and marks it most recently used.
func (c *Sessions[V]) touchLocked(key string) (V, bool) {
	v, ok := c.vals[key]
	if ok {
		i := slices.Index(c.order, key)
		c.order = append(slices.Delete(c.order, i, i+1), key)
	}
	return v, ok
}

// Len reports the number of cached values.
func (c *Sessions[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}

// Each calls fn on every cached value in key order, outside the lock.
func (c *Sessions[V]) Each(fn func(key string, v V)) {
	c.mu.Lock()
	keys := slices.Clone(c.order)
	sort.Strings(keys)
	vals := make([]V, len(keys))
	for i, k := range keys {
		vals[i] = c.vals[k]
	}
	c.mu.Unlock()
	for i, k := range keys {
		fn(k, vals[i])
	}
}

// Clear drops every value without counting evictions (a closing server).
func (c *Sessions[V]) Clear() {
	c.mu.Lock()
	clear(c.vals)
	c.order = nil
	c.mu.Unlock()
}
