package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scale"
)

// testGraph builds a deterministic random request for the given session
// shape.
func testGraph(seed int64, n, degree, dim int) scale.InferRequest {
	rng := rand.New(rand.NewSource(seed))
	req := scale.InferRequest{NumVertices: n}
	for v := 0; v < n; v++ {
		for k := 0; k < degree; k++ {
			req.Edges = append(req.Edges, [2]int{rng.Intn(n), v})
		}
	}
	req.Features = make([][]float32, n)
	for v := range req.Features {
		row := make([]float32, dim)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		req.Features[v] = row
	}
	return req
}

// TestMicroBatchBitIdentical is the acceptance pin for dynamic batching: N
// concurrent /v1/infer requests for the same session, coalesced by the
// micro-batcher, must produce responses byte-identical to N serial
// scale.Infer calls on a fresh Simulator.
func TestMicroBatchBitIdentical(t *testing.T) {
	const n = 8
	dims := []int{4, 8, 4}
	reqs := make([]scale.InferRequest, n)
	for i := range reqs {
		reqs[i] = testGraph(int64(1000+i), 10+i*7, 1+i%3, 4)
	}

	// Serial ground truth through the public one-shot API.
	serialSim := testSim(t)
	want := make([][]byte, n)
	for i, r := range reqs {
		rows, err := serialSim.Infer("gcn", dims, r.NumVertices, r.Edges, r.Features)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(inferResponse{Model: "gcn", Precision: "fp32", Embeddings: rows}); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}

	// Concurrent, coalesced execution: a wide window guarantees the batcher
	// sees all stragglers before firing.
	s := newTestServer(t, Config{BatchWindow: 100 * time.Millisecond, MaxBatch: n})
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		got   = make([][]byte, n)
		codes = make([]int, n)
	)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body := inferBody{Model: "gcn", Dims: dims, NumVertices: reqs[i].NumVertices,
				Edges: reqs[i].Edges, Features: reqs[i].Features}
			rec := do(t, s, "POST", "/v1/infer", body)
			codes[i] = rec.Code
			got[i] = rec.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range reqs {
		if codes[i] != 200 {
			t.Fatalf("request %d: code %d: %s", i, codes[i], got[i])
		}
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("request %d: batched response differs from serial Infer\nserial:  %s\nbatched: %s", i, want[i], got[i])
		}
	}
	// The point of the test is that batching actually happened.
	m := s.Metrics()
	if m.BatchedRequests.Load() != n {
		t.Fatalf("batched requests = %d, want %d", m.BatchedRequests.Load(), n)
	}
	if m.Batches.Load() >= n {
		t.Errorf("batches = %d for %d requests — nothing coalesced", m.Batches.Load(), n)
	}
}

// TestZeroWindowCoalescesQueued pins the window=0 contract: already-queued
// requests coalesce, but the batcher never waits for stragglers.
func TestZeroWindowCoalescesQueued(t *testing.T) {
	sim := testSim(t)
	sess, err := sim.NewSession("gcn", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var mu sync.Mutex
	backend := func(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
		mu.Lock()
		sizes = append(sizes, len(reqs))
		mu.Unlock()
		return sess.InferBatch(ctx, reqs)
	}
	b := newBatcher(sess, backend, 0, 8, 8, NewMetrics())
	req := testGraph(1, 4, 1, 2)
	var pendings []*pending
	for i := 0; i < 3; i++ {
		p := &pending{req: req, ctx: context.Background(), done: make(chan batchResult, 1)}
		pendings = append(pendings, p)
		b.queued++
		b.in <- p // buffered channel: queued before the loop starts
	}
	go b.loop()
	for _, p := range pendings {
		if res := <-p.done; res.err != nil {
			t.Fatal(res.err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batch sizes = %v, want one batch of 3", sizes)
	}
}

// TestJoinContexts pins the merged-batch context semantics: one member's
// death must not cancel the batch; all members' deaths must.
func TestJoinContexts(t *testing.T) {
	one := &pending{ctx: context.Background()}
	ctx, stop := joinContexts([]*pending{one})
	if ctx != one.ctx {
		t.Fatal("single-member batch must run directly under the request context")
	}
	stop()

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	merged, stop := joinContexts([]*pending{{ctx: ctx1}, {ctx: ctx2}})
	defer stop()
	cancel1()
	select {
	case <-merged.Done():
		t.Fatal("one member's cancellation must not cancel the batch")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-merged.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("batch context must cancel once every member is done")
	}
}

// TestSessionEviction bounds the cache: with MaxSessions=2, a third session
// evicts the least-recently-used one, every request still answers 200, and
// the evicted batcher goroutine retires without dropping work.
func TestSessionEviction(t *testing.T) {
	s := newTestServer(t, Config{MaxSessions: 2, BatchWindow: time.Millisecond})
	models := []string{"gcn", "gin", "gat"}
	for round := 0; round < 3; round++ {
		for i, model := range models {
			req := testGraph(int64(10*round+i), 6, 2, 3)
			body := inferBody{Model: model, Dims: []int{3, 3}, NumVertices: req.NumVertices,
				Edges: req.Edges, Features: req.Features}
			if rec := do(t, s, "POST", "/v1/infer", body); rec.Code != 200 {
				t.Fatalf("round %d %s: %d %s", round, model, rec.Code, rec.Body.String())
			}
		}
	}
	if live := s.LiveSessions(); live > 2 {
		t.Fatalf("live sessions = %d, want ≤ 2", live)
	}
	m := s.Metrics()
	if m.SessionsCreated.Load() < 3 || m.SessionsEvicted.Load() < 1 {
		t.Fatalf("created = %d, evicted = %d", m.SessionsCreated.Load(), m.SessionsEvicted.Load())
	}
}

// TestSessionReuseAcrossRequests proves the cache works: two requests for
// the same (model, dims) construct exactly one session.
func TestSessionReuseAcrossRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		if rec := do(t, s, "POST", "/v1/infer", validInfer()); rec.Code != 200 {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	if n := s.Metrics().SessionsCreated.Load(); n != 1 {
		t.Fatalf("sessions created = %d, want 1", n)
	}
	// Different dims for the same model is a different session.
	other := validInfer()
	other.Dims = []int{2, 5}
	if rec := do(t, s, "POST", "/v1/infer", other); rec.Code != 200 {
		t.Fatalf("other dims: %d", rec.Code)
	}
	if n := s.Metrics().SessionsCreated.Load(); n != 2 {
		t.Fatalf("sessions created = %d, want 2", n)
	}
}
