package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"scale"
	"scale/internal/fault"
)

// Backend executes one coalesced batch of requests against a session. The
// production backend is (*scale.Session).InferBatch; tests swap in fault-
// and latency-injecting backends to drive the 408/429/500 paths
// deterministically.
type Backend func(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error)

// pending is one admitted infer request waiting for its batch to execute.
// done is buffered so the batcher's reply never blocks on a handler that
// already gave up (deadline expired, client gone).
type pending struct {
	req  scale.InferRequest
	ctx  context.Context
	done chan batchResult
}

type batchResult struct {
	rows [][]float32
	err  error
}

// batcher coalesces concurrent requests for one session into single batched
// forward calls: its loop keeps a batch open for at most window, or until
// maxBatch requests have joined, then runs it. Requests never cross
// sessions — different (model, dims, precision) keys cannot share a forward
// pass.
//
// The loop goroutine runs exactly while queued is non-zero: submit starts it
// when queued leaves zero, and it exits when a batch brings queued back to
// zero, both under mu. So evicting the session needs no reference counts —
// the cache drops its entry, and a running loop finishes what is queued.
type batcher struct {
	sess     *scale.Session
	backend  Backend
	window   time.Duration
	maxBatch int
	metrics  *Metrics
	in       chan *pending
	loops    *sync.WaitGroup // running loops; the Server's Close waits on it

	mu     sync.Mutex
	queued int // requests submitted and not yet run
}

func newBatcher(sess *scale.Session, backend Backend, window time.Duration, maxBatch int, depth int, m *Metrics) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &batcher{
		sess:     sess,
		backend:  backend,
		window:   window,
		maxBatch: maxBatch,
		metrics:  m,
		in:       make(chan *pending, depth),
	}
}

// submit queues one request, starting the loop unless one is running.
func (b *batcher) submit(p *pending) {
	b.mu.Lock()
	start := b.queued == 0
	b.queued++
	b.mu.Unlock()
	if start {
		b.loops.Add(1)
		go func() {
			defer b.loops.Done()
			b.loop()
		}()
	}
	b.in <- p
}

// loop collects and runs batches until none is queued.
func (b *batcher) loop() {
	for {
		batch := b.collect(<-b.in)
		b.run(batch)
		b.mu.Lock()
		b.queued -= len(batch)
		idle := b.queued == 0
		b.mu.Unlock()
		if idle {
			return
		}
	}
}

// collect keeps the batch open for the latency window (bounded by maxBatch).
// A window of zero or less still coalesces whatever is already queued,
// without waiting; Config turns a zero BatchWindow into its default, so
// only a negative one reaches this path.
func (b *batcher) collect(first *pending) []*pending {
	batch := append(make([]*pending, 0, b.maxBatch), first)
	if b.window > 0 {
		timer := time.NewTimer(b.window)
		defer timer.Stop()
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.in:
				batch = append(batch, p)
			case <-timer.C:
				return batch
			}
		}
		return batch
	}
	for len(batch) < b.maxBatch {
		select {
		case p := <-b.in:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// run executes one batch. Members whose deadline expired while queued are
// answered with their context error (408 upstream) and dropped; the
// survivors share one forward call. A backend panic is contained into a
// *fault.PanicError and answered to every member — the process never dies,
// and requests in other batches and sessions are unaffected.
func (b *batcher) run(batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.done <- batchResult{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	ctx, stop := joinContexts(live)
	defer stop()
	reqs := make([]scale.InferRequest, len(live))
	for i, p := range live {
		reqs[i] = p.req
	}
	var results [][][]float32
	err := fault.Safely(func() error {
		var err error
		results, err = b.backend(ctx, b.sess, reqs)
		return err
	})
	if err == nil && len(results) != len(live) {
		err = fmt.Errorf("serve: backend returned %d results for %d requests", len(results), len(live))
	}
	if err != nil {
		if _, ok := fault.AsPanic(err); ok {
			b.metrics.PanicsContained.Add(1)
		}
		for _, p := range live {
			p.done <- batchResult{err: err}
		}
		return
	}
	b.metrics.ObserveBatch(len(live))
	for i, p := range live {
		p.done <- batchResult{rows: results[i]}
	}
}

// joinContexts derives the batch's execution context from its members'. A
// single-member batch runs directly under that request's context, so its
// deadline maps straight through core.ForwardContext. A merged batch must
// not let one member's deadline cancel its batch-mates, so it runs under a
// context cancelled only when every member context is done (a fully
// abandoned batch still stops at the next scheduling-batch boundary).
func joinContexts(live []*pending) (context.Context, func()) {
	if len(live) == 1 {
		return live[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer cancel()
		for _, p := range live {
			select {
			case <-p.ctx.Done():
			case <-stopped:
				return
			}
		}
	}()
	return ctx, func() { close(stopped) }
}
