package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scale/internal/graph"
	"scale/internal/shard/chaosnet"
	"scale/internal/tensor"
)

// chaosClient wraps the default transport in a fault-injecting one.
func chaosClient(cfg chaosnet.Config) *http.Client {
	return &http.Client{Transport: chaosnet.NewTransport(nil, cfg)}
}

// Seeded chaos soak: every pass through a faulty network (latency, connection
// resets, truncated bodies) must end in a bit-identical answer or a
// classified error — never a hang past the deadline, never a wrong answer —
// and the fault mix must actually engage the resilience machinery.
func TestPoolUnderChaos(t *testing.T) {
	sim := newTestSim(t)
	g := graph.CommunityGraph(150, 4, 7, 11)
	spec := SessionSpec{Model: "gcn", Dims: []int{6, 4, 3}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 6)
	for i := range x.Data {
		x.Data[i] = float32(i%17)*0.21 - 1.1
	}
	want := unshardedReference(t, sim, spec, g, x)

	cfgs := []chaosnet.Config{
		{Seed: 101, Latency: 0.2, LatencyMax: 2 * time.Millisecond, Reset: 0.06, Truncate: 0.08},
		{Seed: 202, Latency: 0.2, LatencyMax: 2 * time.Millisecond, Reset: 0.06, Truncate: 0.08},
	}
	urls := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		w := NewWorker(WorkerConfig{Sim: sim})
		t.Cleanup(w.Close)
		srv := httptest.NewServer(chaosnet.Middleware(w.Handler(), cfg))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	pool, err := NewPool(PoolConfig{
		Workers:          urls,
		Parts:            2,
		BreakerThreshold: 2,
		DownFor:          20 * time.Millisecond,
		RequestTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	const passes = 8
	ok := 0
	for i := 0; i < passes; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, _, err := pool.Run(ctx, spec, g, x)
		cancel()
		if err != nil {
			t.Logf("pass %d: classified error under chaos: %v", i, err)
			continue
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("pass %d: shape %dx%d, want %dx%d", i, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for j, v := range got.Data {
			if v != want.Data[j] {
				t.Fatalf("pass %d: element %d differs under chaos: %v vs %v", i, j, v, want.Data[j])
			}
		}
		ok++
	}
	if ok < passes/2 {
		t.Fatalf("only %d/%d passes succeeded under chaos", ok, passes)
	}
	m := pool.Metrics()
	if m.Failovers.Load() == 0 && m.Reloads.Load() == 0 && m.Retries.Load() == 0 {
		t.Fatal("chaos soak produced no failovers, reloads, or retries — fault injection inert?")
	}
	t.Logf("chaos soak: %d/%d passes clean, failovers=%d reloads=%d retries=%d",
		ok, passes, m.Failovers.Load(), m.Reloads.Load(), m.Retries.Load())
}

// The client-side chaos transport drives the same contract without touching
// the workers: a pool talking through a faulty RoundTripper still returns
// bit-identical answers (or classified errors) and trips its machinery.
func TestPoolChaosTransport(t *testing.T) {
	sim := newTestSim(t)
	addrs, _ := startWorkers(t, sim, 2)
	g := graph.CommunityGraph(120, 3, 6, 5)
	spec := SessionSpec{Model: "gin", Dims: []int{5, 4}, Precision: "fp32"}
	x := tensor.NewMatrix(g.NumVertices(), 5)
	for i := range x.Data {
		x.Data[i] = float32(i%9) * 0.3
	}
	want := unshardedReference(t, sim, spec, g, x)

	pool, err := NewPool(PoolConfig{
		Workers:          addrs,
		Parts:            2,
		BreakerThreshold: 2,
		DownFor:          20 * time.Millisecond,
		Client:           chaosClient(chaosnet.Config{Seed: 77, Reset: 0.08, Truncate: 0.08}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	const passes = 6
	for i := 0; i < passes; i++ {
		got, _, err := pool.Run(context.Background(), spec, g, x)
		if err != nil {
			t.Logf("pass %d: classified error: %v", i, err)
			continue
		}
		for j, v := range got.Data {
			if v != want.Data[j] {
				t.Fatalf("pass %d: element %d differs: %v vs %v", i, j, v, want.Data[j])
			}
		}
		ok++
	}
	if ok < passes/2 {
		t.Fatalf("only %d/%d passes succeeded through the chaos transport", ok, passes)
	}
}
