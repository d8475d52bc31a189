package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"scale/internal/fault"
)

// Pool bounds the number of goroutines a fan-out may occupy. One pool can
// be shared by every fan-out of a run — an experiment-level fan-out and the
// sweeps inside individual experiments — so the total concurrency stays at
// the configured budget no matter how deeply fan-outs nest.
type Pool struct {
	// sem holds workers-1 slots: the calling goroutine is itself a worker,
	// so a budget of N admits N-1 helpers.
	sem chan struct{}
}

// NewPool returns a pool of the given worker budget; workers < 1 selects
// runtime.GOMAXPROCS(0). A budget of 1 runs every item inline, in order.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Each runs fn(0..n-1), spawning a helper goroutine per item while pool
// slots are free and running the item inline on the caller's goroutine
// otherwise. Running overflow inline (rather than blocking on a slot) is
// what makes nested Each calls deadlock-free: a worker that fans out again
// always makes progress on its own items.
//
// Each is a fault-isolation boundary:
//
//   - A panicking item is recovered into a *fault.PanicError instead of
//     killing the process; items already in flight still complete.
//   - Once any item has failed — or ctx is done — no further items are
//     launched. Items launch in index order, so every index below the first
//     failing one has already been launched, which keeps the reported error
//     deterministic: the first error in index order among completed items,
//     independent of goroutine interleaving.
//   - Deadlines and cancellation propagate through ctx; when the items all
//     succeed but the sweep was cut short, Each returns ctx.Err().
//
// Results must be written to caller-owned, per-index storage.
func (p *Pool) Each(ctx context.Context, n int, fn func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var failed atomic.Bool
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = fault.Recovered(v)
			}
			if errs[i] != nil {
				failed.Store(true)
			}
		}()
		errs[i] = fn(i)
	}
	launched := n
	for i := 0; i < n; i++ {
		if failed.Load() || ctx.Err() != nil {
			launched = i
			break
		}
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				run(i)
			}(i)
		default:
			run(i)
		}
	}
	wg.Wait()
	for _, err := range errs[:launched] {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
