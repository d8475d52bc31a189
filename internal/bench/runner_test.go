package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"scale/internal/baseline"
)

// The pool must never run more than `workers` items at once, and must
// complete every item.
func TestPoolConcurrencyBound(t *testing.T) {
	const workers, n = 4, 64
	p := newPool(workers)
	var cur, peak, ran int64
	err := p.forEach(context.Background(), n, func(i int) error {
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

// forEach must report the first error in index order, not completion order.
func TestPoolErrorIndexOrder(t *testing.T) {
	p := newPool(8)
	err := p.forEach(context.Background(), 16, func(i int) error {
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
	p := newPool(2)
	var ran int64
	err := p.forEach(context.Background(), 8, func(i int) error {
		return p.forEach(context.Background(), 8, func(j int) error {
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

// Runner.Run must return results in input order with per-experiment errors
// carried in the result, not aborting the sweep.
func TestRunnerOrderingAndErrors(t *testing.T) {
	exps := make([]Experiment, 8)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID:          fmt.Sprintf("exp%d", i),
			Description: "test",
			Run: func(*Suite) (*Table, error) {
				if i == 5 {
					return nil, fmt.Errorf("boom")
				}
				tb := &Table{Title: fmt.Sprintf("t%d", i)}
				tb.AddRow("x")
				return tb, nil
			},
		}
	}
	results := NewRunner(NewSuite(), 4).Run(exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results for %d experiments", len(results), len(exps))
	}
	for i, res := range results {
		if res.Experiment.ID != exps[i].ID {
			t.Errorf("result %d holds %s", i, res.Experiment.ID)
		}
		if i == 5 {
			if res.Err == nil {
				t.Error("experiment 5 should carry its error")
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("experiment %d: %v", i, res.Err)
		}
		if want := fmt.Sprintf("t%d", i); res.Table == nil || res.Table.Title != want {
			t.Errorf("result %d table mismatch", i)
		}
	}
}

// Concurrent Do calls for one key must share a single computation, and
// errors must be cached like values (the simulators are deterministic, so a
// failed computation fails identically on retry).
func TestSingleflightCache(t *testing.T) {
	c := newSFCache[int]()
	var calls int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("k", func() (int, error) {
				atomic.AddInt64(&calls, 1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times for one key", calls)
	}
	if _, err := c.Do("bad", func() (int, error) { return 0, fmt.Errorf("nope") }); err == nil {
		t.Fatal("error not returned")
	}
	if _, err := c.Do("bad", func() (int, error) {
		t.Fatal("fn must not rerun for a cached error")
		return 0, nil
	}); err == nil {
		t.Fatal("cached error not returned")
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
}

// Regression for the cache-key bug: a caller-supplied accelerator evaluated
// before and after the suite's MAC budget changes must occupy two cache
// entries — the old key (name|model|dataset|macs) collided because the
// accelerator's own MAC count is independent of the suite budget.
func TestCacheKeyCarriesSuiteBudget(t *testing.T) {
	s := NewSuite()
	a := baseline.NewAWBGCN(512) // fixed MACs, independent of s.MACs
	if _, err := s.Run(a, "gcn", "cora"); err != nil {
		t.Fatal(err)
	}
	if got := s.results.Len(); got != 1 {
		t.Fatalf("results cache holds %d entries, want 1", got)
	}
	s.MACs = 2048
	if _, err := s.Run(a, "gcn", "cora"); err != nil {
		t.Fatal(err)
	}
	if got := s.results.Len(); got != 2 {
		t.Fatalf("reconfigured budget reused the stale entry: %d entries, want 2", got)
	}
	// Same budget again: must hit the cache, not add a third entry.
	if _, err := s.Run(a, "gcn", "cora"); err != nil {
		t.Fatal(err)
	}
	if got := s.results.Len(); got != 2 {
		t.Fatalf("cache miss on identical key: %d entries", got)
	}
}
