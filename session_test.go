package scale

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// randGraph builds a deterministic random graph + features for session tests.
func randGraph(seed int64, n, degree, dim int) (edges [][2]int, features [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		for k := 0; k < degree; k++ {
			edges = append(edges, [2]int{rng.Intn(n), v})
		}
	}
	features = make([][]float32, n)
	for v := range features {
		row := make([]float32, dim)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		features[v] = row
	}
	return edges, features
}

func TestSessionMatchesInfer(t *testing.T) {
	sim, _ := New(Options{})
	edges, features := randGraph(7, 40, 3, 4)
	want, err := sim.Infer("gcn", []int{4, 8, 4}, 40, edges, features)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.NewSession("gcn", []int{4, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		got, err := sess.Infer(40, edges, features)
		if err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, want, got)
	}
}

// TestSessionAllocsBelowInfer pins the Session win: repeated same-session
// calls must not rebuild the model or re-materialize its weights, so for a
// weight-dominated configuration (64→128→64 dims over an 8-vertex graph) a
// Session.Infer call must allocate a small fraction of what a from-scratch
// Simulator.Infer call does, in both allocation count and bytes.
func TestSessionAllocsBelowInfer(t *testing.T) {
	sim, _ := New(Options{})
	dims := []int{64, 128, 64}
	edges, features := randGraph(11, 8, 2, 64)
	sess, err := sim.NewSession("gcn", dims)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the accelerator's forward pool and the session's lazy weights.
	if _, err := sess.Infer(8, edges, features); err != nil {
		t.Fatal(err)
	}
	infer := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Infer("gcn", dims, 8, edges, features); err != nil {
				b.Fatal(err)
			}
		}
	})
	session := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Infer(8, edges, features); err != nil {
				b.Fatal(err)
			}
		}
	})
	if s, n := session.AllocsPerOp(), infer.AllocsPerOp(); s >= n {
		t.Errorf("Session.Infer allocs/op = %d, want below Infer's %d (model must not be rebuilt)", s, n)
	}
	if s, n := session.AllocedBytesPerOp(), infer.AllocedBytesPerOp(); s >= n/2 {
		t.Errorf("Session.Infer B/op = %d, want well below Infer's %d (weights must not re-materialize)", s, n)
	}
}

// TestInferBatchBitIdentical is the micro-batching correctness pin: a
// coalesced InferBatch over N graphs must produce, for every request, the
// byte-for-byte embeddings of a standalone serial Infer call.
func TestInferBatchBitIdentical(t *testing.T) {
	sim, _ := New(Options{})
	for _, model := range []string{"gcn", "gin", "gat"} {
		sess, err := sim.NewSession(model, []int{6, 12, 5})
		if err != nil {
			t.Fatal(err)
		}
		var reqs []InferRequest
		for i := 0; i < 5; i++ {
			// Mixed sizes, including a single-vertex graph with no edges.
			n := 1 + i*13
			deg := i % 3
			edges, features := randGraph(int64(100+i), n, deg, 6)
			reqs = append(reqs, InferRequest{NumVertices: n, Edges: edges, Features: features})
		}
		batched, err := sess.InferBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for i, r := range reqs {
			serial, err := sim.Infer(model, []int{6, 12, 5}, r.NumVertices, r.Edges, r.Features)
			if err != nil {
				t.Fatalf("%s serial %d: %v", model, i, err)
			}
			assertBitEqual(t, serial, batched[i])
		}
	}
}

// Result rows are views of the pass's output matrix, capped at their own
// end: appending to one must reallocate, never write into the row after it,
// across request boundaries of a batch too. An uncapped view fails here.
func TestResultRowsAreCapped(t *testing.T) {
	sim, _ := New(Options{})
	dims := []int{4, 8, 3}
	sess, err := sim.NewSession("gcn", dims)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []InferRequest
	for i := 0; i < 2; i++ {
		edges, features := randGraph(int64(300+i), 5, 2, 4)
		reqs = append(reqs, InferRequest{NumVertices: 5, Edges: edges, Features: features})
	}
	batched, err := sess.InferBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(reqs[0].NumVertices)
	for _, e := range reqs[0].Edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build("capped")
	x := tensor.FromRows(reqs[0].Features)
	whole, err := sess.InferGraph(context.Background(), g, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := sess.InferSampled(context.Background(), []*graph.Graph{g, g}, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One row list per result, the batch's two requests joined in order.
	for name, rows := range map[string][][]float32{
		"InferBatch":   append(append([][]float32(nil), batched[0]...), batched[1]...),
		"InferGraph":   whole,
		"InferSampled": sampled,
	} {
		for v := 0; v+1 < len(rows); v++ {
			next := append([]float32(nil), rows[v+1]...)
			grown := append(rows[v], 42)
			if len(grown) != len(rows[v])+1 {
				t.Fatalf("%s row %d: append gave %d elements", name, v, len(grown))
			}
			for j, want := range next {
				if math.Float32bits(rows[v+1][j]) != math.Float32bits(want) {
					t.Fatalf("%s: appending to row %d overwrote row %d", name, v, v+1)
				}
			}
		}
	}
}

func assertBitEqual(t *testing.T, want, got [][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row count %d vs %d", len(want), len(got))
	}
	for v := range want {
		if len(want[v]) != len(got[v]) {
			t.Fatalf("row %d width %d vs %d", v, len(want[v]), len(got[v]))
		}
		for j := range want[v] {
			if math.Float32bits(want[v][j]) != math.Float32bits(got[v][j]) {
				t.Fatalf("row %d col %d: %x vs %x", v, j, want[v][j], got[v][j])
			}
		}
	}
}

func TestSessionValidation(t *testing.T) {
	sim, _ := New(Options{})
	sess, err := sim.NewSession("gcn", []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  InferRequest
		want error
	}{
		{"no vertices", InferRequest{NumVertices: 0}, fault.ErrBadGraph},
		{"edge out of range", InferRequest{NumVertices: 2, Edges: [][2]int{{0, 5}},
			Features: [][]float32{{1, 0}, {0, 1}}}, fault.ErrBadGraph},
		{"missing feature rows", InferRequest{NumVertices: 2,
			Features: [][]float32{{1, 0}}}, fault.ErrBadShape},
		{"ragged feature row", InferRequest{NumVertices: 1,
			Features: [][]float32{{1, 0, 0}}}, fault.ErrBadShape},
	}
	for _, tc := range cases {
		if err := sess.Validate(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := sess.InferContext(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s via InferContext: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := sim.NewSession("nope", []int{2, 2}); err == nil {
		t.Fatal("unknown model must fail at session creation")
	}
	if _, err := sim.NewSession("gcn", []int{2}); !errors.Is(err, fault.ErrBadShape) {
		t.Fatal("short dims chain must fail at session creation")
	}
	// Batched validation names the failing request.
	_, err = sess.InferBatch(context.Background(), []InferRequest{
		{NumVertices: 1, Features: [][]float32{{1, 0}}},
		{NumVertices: 0},
	})
	if !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("batch validation: got %v", err)
	}
}

func TestSessionCancellation(t *testing.T) {
	sim, _ := New(Options{})
	sess, err := sim.NewSession("gcn", []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	edges, features := randGraph(3, 32, 2, 4)
	if _, err := sess.InferContext(ctx, InferRequest{NumVertices: 32, Edges: edges, Features: features}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled infer: got %v", err)
	}
}
