package shard

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scale/internal/graph"
	"scale/internal/httpapi"
	"scale/internal/tensor"
)

// candidates must demote breaker-refused workers to the back of the failover
// order — never remove them — and keep the ring order among the healthy.
func TestCandidatesOrdering(t *testing.T) {
	pool, err := NewPool(PoolConfig{Workers: []string{"w1:1", "w2:1", "w3:1"}, Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	const key = "gcn/4/2/fp32#0"
	base := pool.candidates(key)
	if len(base) != 3 {
		t.Fatalf("candidates returned %d workers, want 3", len(base))
	}

	tripped := base[0]
	for i := 0; i < 3; i++ {
		pool.Breaker(tripped).Failure()
	}
	got := pool.candidates(key)
	if len(got) != 3 {
		t.Fatalf("tripped worker removed: candidates = %v", got)
	}
	if got[len(got)-1] != tripped {
		t.Fatalf("tripped worker %s not demoted to the back: %v", tripped, got)
	}
	if got[0] != base[1] || got[1] != base[2] {
		t.Fatalf("healthy candidates reordered: %v, want prefix %v", got, base[1:])
	}

	for _, a := range base {
		for i := 0; i < 3; i++ {
			pool.Breaker(a).Failure()
		}
	}
	if got := pool.candidates(key); len(got) != 3 {
		t.Fatalf("all-open candidates = %v, want every worker listed", got)
	}
	if pool.LiveWorkers() != 0 || !pool.Degraded() {
		t.Fatal("all-open pool must report zero live workers and degraded")
	}
}

// With every breaker open and inside its cooldown, the pool must still try
// the workers (stale breakers beat refusing outright) — and a healthy fleet
// closes the breakers again through the data plane alone.
func TestPoolAllBreakersOpenStillRuns(t *testing.T) {
	sim := newTestSim(t)
	addrs, _ := startWorkers(t, sim, 2)
	pool, err := NewPool(PoolConfig{Workers: addrs, Parts: 2, BreakerThreshold: 1, DownFor: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		pool.Breaker(a).Failure()
	}
	if !pool.Degraded() {
		t.Fatal("pool with every breaker open must report degraded")
	}

	g := graph.CommunityGraph(80, 2, 6, 3)
	spec := SessionSpec{Model: "gcn", Dims: []int{5, 3}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 5)
	for i := range x.Data {
		x.Data[i] = float32(i%7) * 0.4
	}
	want := unshardedReference(t, sim, spec, g, x)
	got, _, err := pool.Run(context.Background(), spec, g, x)
	if err != nil {
		t.Fatalf("all-open pool refused to try healthy workers: %v", err)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("element %d differs: %v vs %v", i, v, want.Data[i])
		}
	}
	if pool.LiveWorkers() == 0 {
		t.Fatal("successful pass must have closed at least one breaker")
	}
}

// A 429 is a transient: the pool retries in place on the same worker,
// httpapi.RetryAfter apart, instead of tripping the breaker or failing over.
// The wait is the pool's own, so a worker asking for an hour gets a second.
func TestPoolTransientRetryInPlace(t *testing.T) {
	for _, hint := range []string{"1", "3600"} {
		t.Run("Retry-After="+hint, func(t *testing.T) {
			t.Parallel()
			sim := newTestSim(t)
			w := NewWorker(WorkerConfig{Sim: sim})
			t.Cleanup(w.Close)
			var rejects atomic.Int32
			rejects.Store(2)
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/v1/shard/") && rejects.Add(-1) >= 0 {
					rw.Header().Set("Retry-After", hint)
					rw.Header().Set("Content-Type", "application/json")
					rw.WriteHeader(http.StatusTooManyRequests)
					_, _ = rw.Write([]byte(`{"error":"run table full","kind":"over_capacity"}`))
					return
				}
				w.Handler().ServeHTTP(rw, r)
			}))
			t.Cleanup(srv.Close)

			pool, err := NewPool(PoolConfig{Workers: []string{srv.URL}, Parts: 1})
			if err != nil {
				t.Fatal(err)
			}
			g := graph.CommunityGraph(60, 2, 5, 1)
			spec := SessionSpec{Model: "gcn", Dims: []int{4, 2}, Precision: "fp32"}
			x := tensor.NewMatrix(g.NumVertices(), 4)
			start := time.Now()
			if _, _, err := pool.Run(context.Background(), spec, g, x); err != nil {
				t.Fatalf("transient 429s must be retried through: %v", err)
			}
			if d := time.Since(start); d < 2*httpapi.RetryAfter || d > 5*time.Second {
				t.Fatalf("two 429s took %s, want at least 2×%s and under 5s", d, httpapi.RetryAfter)
			}
			m := pool.Metrics()
			if m.Retries.Load() < 2 {
				t.Fatalf("retries = %d, want ≥2 (one per 429)", m.Retries.Load())
			}
			if m.Failovers.Load() != 0 {
				t.Fatalf("failovers = %d: a transient 429 must not eject the worker", m.Failovers.Load())
			}
			if pool.Breaker(srv.URL).State() != BreakerClosed {
				t.Fatal("transient 429s must not feed the breaker")
			}
		})
	}
}

// A 503 that is not a drain comes from no worker in this repo, so it is
// nothing the pool waits out: the call fails over at once, with no retry.
func TestPoolNonDrain503FailsOver(t *testing.T) {
	sim := newTestSim(t)
	var refused atomic.Bool
	urls := make([]string, 2)
	for i := range urls {
		w := NewWorker(WorkerConfig{Sim: sim})
		t.Cleanup(w.Close)
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/shard/") && refused.CompareAndSwap(false, true) {
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusServiceUnavailable)
				_, _ = rw.Write([]byte(`{"error":"unavailable","kind":"internal"}`))
				return
			}
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	pool, err := NewPool(PoolConfig{Workers: urls, Parts: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.CommunityGraph(60, 2, 5, 1)
	spec := SessionSpec{Model: "gcn", Dims: []int{4, 2}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 4)
	if _, _, err := pool.Run(context.Background(), spec, g, x); err != nil {
		t.Fatalf("a 503 on one worker must fail over to the other: %v", err)
	}
	m := pool.Metrics()
	if m.Retries.Load() != 0 || m.Failovers.Load() != 1 {
		t.Fatalf("retries = %d, failovers = %d; want 0 and 1", m.Retries.Load(), m.Failovers.Load())
	}
}

// Per-call deadlines derive from the request context: RequestTimeout bounds a
// hung worker for budget-less callers, and a caller's earlier deadline wins
// over a generous RequestTimeout.
func TestPoolTimeoutBudget(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			// Drain the body so net/http starts its background read — without
			// it the server never notices the disconnect and the handler (and
			// the test server's Close) would hang forever.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done() // hang until the client gives up
			return
		}
		rw.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(hung.Close)
	g := graph.CommunityGraph(60, 2, 5, 1)
	spec := SessionSpec{Model: "gcn", Dims: []int{4, 2}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 4)

	pool, err := NewPool(PoolConfig{Workers: []string{hung.URL}, Parts: 1, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := pool.Run(context.Background(), spec, g, x); err == nil {
		t.Fatal("hung worker: Run must fail")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("hung worker stalled Run for %s; RequestTimeout did not bound the call", d)
	}

	pool, err = NewPool(PoolConfig{Workers: []string{hung.URL}, Parts: 1, RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, _, err = pool.Run(ctx, spec, g, x)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline: err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("caller deadline ignored for %s", d)
	}
}

// The active prober trips a dead worker's breaker open without any data-plane
// traffic, and reinstates the worker when /healthz recovers.
func TestProberTripsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rw.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)

	pool, err := NewPool(PoolConfig{
		Workers:          []string{srv.URL},
		Parts:            1,
		BreakerThreshold: 2,
		DownFor:          20 * time.Millisecond,
		ProbeInterval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.StartProber()
	defer pool.Close()

	waitState := func(want BreakerState, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if pool.Breaker(srv.URL).State() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("breaker never became %s (%s)", want, what)
	}
	waitState(BreakerOpen, "unhealthy worker must trip via probes alone")
	if !pool.Degraded() {
		t.Fatal("sole worker open: pool must report degraded")
	}
	healthy.Store(true)
	waitState(BreakerClosed, "recovered worker must be reinstated via probes alone")
	if pool.Degraded() || pool.LiveWorkers() != 1 {
		t.Fatal("recovered pool must report a live worker")
	}
	if pool.Metrics().Probes.Load() == 0 {
		t.Fatal("probe counter never moved")
	}
}

// Breaker returns the circuit breaker guarding addr ("" accepted forms are
// the normalized worker URLs), or nil for a worker outside the pool.
func (p *Pool) Breaker(addr string) *Breaker { return p.breakers[normalizeAddr(addr)] }
