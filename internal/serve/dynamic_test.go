package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"scale"
	"scale/internal/dyn"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// newDynGraph builds a 256-vertex dynamic graph (4 schedule batches at the
// default SchedBatch 64, so delta-invalidation has cache entries to reuse)
// with seeded dim-8 features.
func newDynGraph(t testing.TB, cfg dyn.Config) *dyn.Graph {
	t.Helper()
	base := graph.ErdosRenyi(256, 1024, 7)
	x := gnn.RandomFeatures(base, 8, 11)
	d, err := dyn.New(base, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dynMirror re-applies every mutation batch to an independent edge-multiset
// mirror and rebuilds (graph, features) from scratch through graph.Builder —
// the reference the bit-identity soak compares serving against.
type dynMirror struct {
	n     int
	edges [][2]int32
	feats [][]float32
}

func newDynMirror(t testing.TB) *dynMirror {
	t.Helper()
	base := graph.ErdosRenyi(256, 1024, 7)
	x := gnn.RandomFeatures(base, 8, 11)
	m := &dynMirror{n: base.NumVertices()}
	for v := 0; v < base.NumVertices(); v++ {
		for _, u := range base.InNeighbors(v) {
			m.edges = append(m.edges, [2]int32{u, int32(v)})
		}
	}
	for i := 0; i < x.Rows; i++ {
		m.feats = append(m.feats, append([]float32(nil), x.Row(i)...))
	}
	return m
}

func (m *dynMirror) apply(t testing.TB, ops []mutateOp) {
	t.Helper()
	for _, op := range ops {
		switch op.Op {
		case "add_edge":
			m.edges = append(m.edges, [2]int32{op.Src, op.Dst})
		case "remove_edge":
			for i, e := range m.edges {
				if e[0] == op.Src && e[1] == op.Dst {
					m.edges = append(m.edges[:i], m.edges[i+1:]...)
					break
				}
			}
		case "add_vertex":
			m.n++
			m.feats = append(m.feats, append([]float32(nil), op.Features...))
		default:
			t.Fatalf("mirror: unknown op %q", op.Op)
		}
	}
}

func (m *dynMirror) build() (*graph.Graph, *tensor.Matrix) {
	b := graph.NewBuilder(m.n)
	for _, e := range m.edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build("mirror"), tensor.FromRows(m.feats)
}

// TestMutateWhileInferSoak is the acceptance soak: mutation batches stream
// through POST /v1/mutate while concurrent dynamic infers run, and after
// every batch the served fp32 unsampled embeddings must be exactly equal to
// inference over a from-scratch Builder rebuild of the same edge multiset
// (through an independent Session). The delta threshold is set so the soak
// crosses a compaction mid-run, proving bit-identity survives re-freezing,
// and the schedule table must end with both reuse (hit rate > 0) and
// strictly fewer recomputed entries than a full per-batch recompute.
func TestMutateWhileInferSoak(t *testing.T) {
	d := newDynGraph(t, dyn.Config{CompactThreshold: 0.002})
	s := newTestServer(t, Config{Dynamic: d, SampleWorkers: 2})
	mirror := newDynMirror(t)

	refSess, err := testSim(t).NewSession("gcn", []int{8, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	inferDyn := func() (*httptest.ResponseRecorder, [][]float32) {
		rec := do(t, s, http.MethodPost, "/v1/infer", inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "dynamic"})
		if rec.Code != http.StatusOK {
			t.Fatalf("dynamic infer: %d %s", rec.Code, rec.Body.String())
		}
		var resp inferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return rec, resp.Embeddings
	}

	// Background infer pressure: dynamic infers racing the mutation stream
	// must each see some consistent snapshot (200s all the way).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec := do(t, s, http.MethodPost, "/v1/infer", inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "dynamic"})
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent dynamic infer: %d %s", rec.Code, rec.Body.String())
					return
				}
			}
		}
	}()

	rounds := [][]mutateOp{
		{{Op: "add_edge", Src: 3, Dst: 9}, {Op: "add_edge", Src: 3, Dst: 9}, {Op: "add_edge", Src: 250, Dst: 1}},
		{{Op: "remove_edge", Src: 3, Dst: 9}, {Op: "add_vertex", Features: []float32{1, 2, 3, 4, 5, 6, 7, 8}}},
		{{Op: "add_edge", Src: 256, Dst: 70}, {Op: "add_edge", Src: 7, Dst: 256}},
		{{Op: "add_edge", Src: 100, Dst: 200}, {Op: "add_edge", Src: 200, Dst: 100}},
		{{Op: "add_edge", Src: 11, Dst: 12}, {Op: "add_edge", Src: 13, Dst: 140}, {Op: "add_edge", Src: 15, Dst: 220}},
		{{Op: "remove_edge", Src: 100, Dst: 200}},
	}
	for i, ops := range rounds {
		rec := do(t, s, http.MethodPost, "/v1/mutate", mutateBody{Ops: ops})
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d mutate: %d %s", i, rec.Code, rec.Body.String())
		}
		mirror.apply(t, ops)

		_, got := inferDyn()
		refG, refX := mirror.build()
		want, err := refSess.InferGraph(context.Background(), refG, refX, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: served embeddings diverge from from-scratch rebuild", i)
		}
	}
	close(stop)
	wg.Wait()

	st := d.Stats()
	if st.Compactions == 0 {
		t.Fatalf("soak never crossed the compaction threshold: %+v", st)
	}
	if st.SchedReused == 0 {
		t.Fatalf("delta-invalidation never reused a schedule entry: %+v", st)
	}
	// Full recompute would redo every entry at every refresh; reuse > 0
	// means strictly fewer entries were recomputed.
	if st.SchedRecomputed >= st.SchedReused+st.SchedRecomputed {
		t.Fatalf("no entries reused: recomputed=%d reused=%d", st.SchedRecomputed, st.SchedReused)
	}

	// The invalidation-hit-rate metric the smoke harness greps must render
	// and be positive.
	rec := do(t, s, http.MethodGet, "/metrics", nil)
	body := rec.Body.String()
	for _, want := range []string{
		"scale_dyn_sched_reused_total",
		"scale_dyn_sched_invalidation_hit_rate",
		"scale_dyn_compactions_total",
		"scale_serve_mutation_batches_total 6",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// sampledReq renders a fixed request-carried graph for the determinism
// matrix: 60 vertices, avg degree 10 (well above both fanouts, so sampling
// actually trims rows).
func sampledReq(t testing.TB, fanout int, seed uint64) inferBody {
	t.Helper()
	g := graph.ErdosRenyi(60, 600, 5)
	x := gnn.RandomFeatures(g, 4, 3)
	edges := make([][2]int, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			edges = append(edges, [2]int{int(u), v})
		}
	}
	feats := make([][]float32, x.Rows)
	for i := range feats {
		feats[i] = x.Row(i)
	}
	return inferBody{
		Model: "gcn", Dims: []int{4, 8, 4},
		NumVertices: g.NumVertices(), Edges: edges, Features: feats,
		SampleFanout: fanout, SampleSeed: seed,
	}
}

// TestSampledInferDeterministicAcrossWorkers pins the HTTP-layer sampling
// contract: for a fixed seed, the raw response bytes are identical across
// SampleWorkers 1, 2, and 8 and across repeats, for two different fanouts —
// and a different seed provably changes the answer.
func TestSampledInferDeterministicAcrossWorkers(t *testing.T) {
	servers := map[int]*Server{}
	for _, w := range []int{1, 2, 8} {
		servers[w] = newTestServer(t, Config{SampleWorkers: w})
	}
	for _, fanout := range []int{3, 7} {
		var golden []byte
		for _, w := range []int{1, 2, 8} {
			for rep := 0; rep < 2; rep++ {
				rec := do(t, servers[w], http.MethodPost, "/v1/infer", sampledReq(t, fanout, 99))
				if rec.Code != http.StatusOK {
					t.Fatalf("fanout %d workers %d: %d %s", fanout, w, rec.Code, rec.Body.String())
				}
				if golden == nil {
					golden = rec.Body.Bytes()
				} else if !bytes.Equal(golden, rec.Body.Bytes()) {
					t.Fatalf("fanout %d: workers=%d rep=%d response bytes differ from golden", fanout, w, rep)
				}
			}
		}
		// A different seed must draw different neighborhoods (and, with
		// overwhelming probability on 60 sampled rows, different floats).
		rec := do(t, servers[1], http.MethodPost, "/v1/infer", sampledReq(t, fanout, 100))
		if rec.Code != http.StatusOK {
			t.Fatalf("fanout %d seed 100: %d %s", fanout, rec.Code, rec.Body.String())
		}
		if bytes.Equal(golden, rec.Body.Bytes()) {
			t.Fatalf("fanout %d: seeds 99 and 100 produced identical responses", fanout)
		}
	}
}

// TestSampledFanoutLargerThanDegreeMatchesFull: a fanout at least every
// vertex's degree keeps all edges, so the sampled answer equals the
// unsampled one (same direct path).
func TestSampledFanoutEqualsFullWhenUncut(t *testing.T) {
	s := newTestServer(t, Config{SampleWorkers: 1})
	full := sampledReq(t, 0, 0)
	full.SampleFanout = 0
	full.Graph = "" // plain batched path
	recFull := do(t, s, http.MethodPost, "/v1/infer", full)
	if recFull.Code != http.StatusOK {
		t.Fatalf("full: %d %s", recFull.Code, recFull.Body.String())
	}
	capped := sampledReq(t, 600, 7) // fanout ≥ max degree: nothing trimmed
	recCap := do(t, s, http.MethodPost, "/v1/infer", capped)
	if recCap.Code != http.StatusOK {
		t.Fatalf("capped: %d %s", recCap.Code, recCap.Body.String())
	}
	var a, b inferResponse
	if err := json.Unmarshal(recFull.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recCap.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Embeddings, b.Embeddings) {
		t.Fatal("uncut sampled inference diverges from the full pass")
	}
}

// TestMutateStatusMapping drives the /v1/mutate error surface.
func TestMutateStatusMapping(t *testing.T) {
	d := newDynGraph(t, dyn.Config{CompactThreshold: math.Inf(1)})
	s := newTestServer(t, Config{Dynamic: d})

	t.Run("method", func(t *testing.T) {
		if rec := do(t, s, http.MethodGet, "/v1/mutate", nil); rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET: %d", rec.Code)
		}
	})
	t.Run("ok json", func(t *testing.T) {
		rec := do(t, s, http.MethodPost, "/v1/mutate", mutateBody{Ops: []mutateOp{{Op: "add_edge", Src: 1, Dst: 2}}})
		if rec.Code != http.StatusOK {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
		var resp mutateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Applied != 1 || resp.Edges != 1025 {
			t.Fatalf("unexpected response %+v", resp)
		}
	})
	t.Run("ok binary", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dyn.EncodeBatch(&buf, dyn.Batch{Ops: []dyn.Mutation{{Op: dyn.OpRemoveEdge, Src: 1, Dst: 2}}}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/mutate", &buf)
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("binary: %d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("truncated binary is 400", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/v1/mutate", bytes.NewReader([]byte("SCD1\x05")))
		req.Header.Set("Content-Type", "application/octet-stream")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || decodeError(t, rec).Kind != "bad_input" {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("unknown op is 400", func(t *testing.T) {
		rec := do(t, s, http.MethodPost, "/v1/mutate", mutateBody{Ops: []mutateOp{{Op: "upsert_edge"}}})
		if rec.Code != http.StatusBadRequest || decodeError(t, rec).Kind != "bad_input" {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("trailing data is 400", func(t *testing.T) {
		rec := do(t, s, http.MethodPost, "/v1/mutate", `{"ops":[{"op":"add_edge","src":1,"dst":2}]} {"ops":[]}`)
		if rec.Code != http.StatusBadRequest || decodeError(t, rec).Kind != "bad_input" {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("out of range is 400 and counted", func(t *testing.T) {
		before := s.Metrics().MutationsRejected.Load()
		rec := do(t, s, http.MethodPost, "/v1/mutate", mutateBody{Ops: []mutateOp{{Op: "add_edge", Src: 9999, Dst: 0}}})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
		if got := s.Metrics().MutationsRejected.Load(); got != before+1 {
			t.Fatalf("MutationsRejected %d, want %d", got, before+1)
		}
	})
	t.Run("no dynamic graph is 400", func(t *testing.T) {
		bare := newTestServer(t, Config{})
		rec := do(t, bare, http.MethodPost, "/v1/mutate", mutateBody{Ops: []mutateOp{{Op: "add_edge"}}})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("dynamic infer without graph is 400", func(t *testing.T) {
		bare := newTestServer(t, Config{})
		rec := do(t, bare, http.MethodPost, "/v1/infer", inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "dynamic"})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	})
	t.Run("unknown graph source is 400", func(t *testing.T) {
		rec := do(t, s, http.MethodPost, "/v1/infer", inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "frozen"})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	})
}

// TestClassifyCompacting pins the 409 mapping: a mid-compaction rejection is
// retryable (conflict + Retry-After), not a client error.
func TestClassifyCompacting(t *testing.T) {
	code, kind := classify(dyn.ErrCompacting)
	if code != http.StatusConflict || kind != "compacting" {
		t.Fatalf("classify(ErrCompacting) = %d %q", code, kind)
	}
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.writeMapped(rec, fmt.Errorf("apply: %w", dyn.ErrCompacting))
	if rec.Code != http.StatusConflict {
		t.Fatalf("writeMapped code %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("409 must carry Retry-After")
	}
}

// TestDynamicInferSessionReuse: the direct path must share the session cache
// with the batched path (one session for both).
func TestDynamicInferSessionReuse(t *testing.T) {
	d := newDynGraph(t, dyn.Config{})
	s := newTestServer(t, Config{Dynamic: d})
	for i := 0; i < 3; i++ {
		rec := do(t, s, http.MethodPost, "/v1/infer", inferBody{Model: "gcn", Dims: []int{8, 16, 8}, Graph: "dynamic"})
		if rec.Code != http.StatusOK {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
	}
	if got := s.Metrics().SessionsCreated.Load(); got != 1 {
		t.Fatalf("SessionsCreated = %d, want 1", got)
	}
	if got := s.Metrics().DynRequests.Load(); got != 3 {
		t.Fatalf("DynRequests = %d, want 3", got)
	}
	var _ scale.InferRequest // keep the scale import purposeful if helpers change
}
