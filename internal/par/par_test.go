package par

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"scale/internal/fault"
)

// The pool must never run more than `workers` items at once, and must
// complete every item.
func TestPoolConcurrencyBound(t *testing.T) {
	const workers, n = 4, 64
	p := NewPool(workers)
	var cur, peak, ran int64
	err := p.Each(context.Background(), n, func(i int) error {
		c := atomic.AddInt64(&cur, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if c <= old || atomic.CompareAndSwapInt64(&peak, old, c) {
				break
			}
		}
		atomic.AddInt64(&ran, 1)
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d items", ran, n)
	}
	if peak > workers {
		t.Fatalf("concurrency peaked at %d with %d workers", peak, workers)
	}
}

// Each must report the first error in index order, not completion order.
func TestPoolErrorIndexOrder(t *testing.T) {
	p := NewPool(8)
	err := p.Each(context.Background(), 16, func(i int) error {
		if i == 3 || i == 11 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("want first error by index (item 3), got %v", err)
	}
}

// Nested fan-outs must not deadlock even when every pool slot is taken:
// overflow items run inline on the caller's goroutine.
func TestPoolNestedNoDeadlock(t *testing.T) {
	p := NewPool(2)
	var ran int64
	err := p.Each(context.Background(), 8, func(i int) error {
		return p.Each(context.Background(), 8, func(j int) error {
			atomic.AddInt64(&ran, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 64 {
		t.Fatalf("ran %d of 64 nested items", ran)
	}
}

// A panicking item becomes a *fault.PanicError, and nothing launches after
// it on a serial pool.
func TestPoolPanicStopsLaunches(t *testing.T) {
	var ran []int
	err := NewPool(1).Each(context.Background(), 4, func(i int) error {
		ran = append(ran, i)
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	if _, ok := fault.AsPanic(err); !ok || len(ran) != 2 {
		t.Fatalf("err %v after items %v, want a PanicError after items [0 1]", err, ran)
	}
}

// Concurrent Get calls for one key must share a single computation, and
// errors must be cached like values (the simulators are deterministic, so a
// failed computation fails identically on retry).
func TestSingleflightCache(t *testing.T) {
	var c Memo[string, int]
	var calls int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				atomic.AddInt64(&calls, 1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times for one key", calls)
	}
	if _, err := c.Get("bad", func() (int, error) { return 0, fmt.Errorf("nope") }); err == nil {
		t.Fatal("error not returned")
	}
	if _, err := c.Get("bad", func() (int, error) {
		t.Fatal("fn must not rerun for a cached error")
		return 0, nil
	}); err == nil {
		t.Fatal("cached error not returned")
	}
	if len(c.m) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(c.m))
	}
}

// A build that panics is never mistaken for a success: every later Get of
// its key panics with the same value and runs no build of its own.
func TestMemoPanicRepeats(t *testing.T) {
	var c Memo[int, int]
	get := func(build func() (int, error)) (v any) {
		defer func() { v = recover() }()
		_, _ = c.Get(1, build)
		return nil
	}
	if v := get(func() (int, error) { panic("boom") }); v != "boom" {
		t.Fatalf("first Get recovered %v, want boom", v)
	}
	if v := get(func() (int, error) { t.Fatal("build reran after a panic"); return 0, nil }); v != "boom" {
		t.Fatalf("second Get recovered %v, want boom", v)
	}
}
