package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// quantizedModel builds a zoo model with its int8 weight forms
// materialized, which is what selects the int8 kernels for every layer.
func quantizedModel(tb testing.TB, name string, dims []int, seed int64) *gnn.Model {
	tb.Helper()
	m := gnn.MustModel(name, dims, seed)
	if err := gnn.QuantizeModel(m); err != nil {
		tb.Fatal(err)
	}
	return m
}

// The int8 accuracy harness: for every model in the zoo and both graph
// shapes, the quantized execution must track the float32 execution within a
// documented bound. Per-row symmetric int8 bounds each quantized operand's
// error by half a quantization step (scale/2 = rowmax/254), so a single
// GEMV's output error is a fraction of a percent of the row max; the bound
// here is per-layer max-abs error <= 6% of that layer's max |float32|
// output, which absorbs the worst observed compounding (GIN chains two
// quantized GEMVs per layer, and layer-2 inputs already carry layer-1's
// quantization error).
func TestInt8AccuracyHarness(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	ref := MustNew(DefaultConfig())
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := gnn.MustModel(name, []int{24, 12, 5}, 11)
			x := gnn.RandomFeatures(g, 24, 13)
			want, err := ref.Forward(m, g, x)
			if err != nil {
				t.Fatalf("%s/%s float32: %v", g.Name(), name, err)
			}
			got, err := ref.Forward(quantizedModel(t, name, []int{24, 12, 5}, 11), g, x)
			if err != nil {
				t.Fatalf("%s/%s int8: %v", g.Name(), name, err)
			}
			for li := range want {
				var maxRef, maxDiff float64
				for i, v := range want[li].Data {
					if a := math.Abs(float64(v)); a > maxRef {
						maxRef = a
					}
					if d := math.Abs(float64(v - got[li].Data[i])); d > maxDiff {
						maxDiff = d
					}
				}
				bound := 0.06*maxRef + 1e-5
				if maxDiff > bound {
					t.Errorf("%s/%s layer %d: int8 max abs err %g > %g (max |float32| %g)",
						g.Name(), name, li, maxDiff, bound, maxRef)
				}
			}
		}
	}
}

// TestInt8AccuracyHarness's widening-first sibling: with dims [12, 24, 5]
// the first layer widens, so gcn and gs-mean aggregate their input rows
// (natural order) there and the transformed rows only in the narrowing
// second layer, where the harness above exercises the narrow order at both
// layers. Same graphs, models and 6 % bound.
func TestInt8AccuracyWideningFirst(t *testing.T) {
	dims := []int{12, 24, 5}
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	ref := MustNew(DefaultConfig())
	var worst float64
	for _, g := range graphs {
		x := gnn.RandomFeatures(g, dims[0], 13)
		for _, name := range gnn.AllModelNames() {
			want, err := ref.Forward(gnn.MustModel(name, dims, 11), g, x)
			if err != nil {
				t.Fatalf("%s/%s float32: %v", g.Name(), name, err)
			}
			got, err := ref.Forward(quantizedModel(t, name, dims, 11), g, x)
			if err != nil {
				t.Fatalf("%s/%s int8: %v", g.Name(), name, err)
			}
			for li := range want {
				var maxRef float64
				for _, v := range want[li].Data {
					maxRef = math.Max(maxRef, math.Abs(float64(v)))
				}
				maxDiff := want[li].MaxAbsDiff(got[li])
				if maxDiff > 0.06*maxRef+1e-5 {
					t.Errorf("%s/%s layer %d: int8 max abs err %g > 6 %% of max |float32| %g",
						g.Name(), name, li, maxDiff, maxRef)
				}
				worst = math.Max(worst, maxDiff/maxRef)
			}
		}
	}
	t.Logf("worst cell: %.2f %% of max |float32|", 100*worst)
}

// The int8 tier keeps the float32 tier's determinism guarantee: integer
// reduce chains sum in exact int32 and every float chain folds in mapping
// order, so serial and group-parallel quantized execution are byte-identical.
func TestInt8ParallelBitIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	s := MustNew(DefaultConfig())
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := quantizedModel(t, name, []int{24, 12, 5}, 11)
			x := gnn.RandomFeatures(g, 24, 13)
			serial, err := s.ForwardParallel(m, g, x, 1)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", g.Name(), name, err)
			}
			for _, workers := range []int{2, 8} {
				par, err := s.ForwardParallel(m, g, x, workers)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", g.Name(), name, workers, err)
				}
				for li := range serial {
					if !par[li].Equal(serial[li]) {
						t.Fatalf("%s/%s workers=%d layer %d: int8 output not byte-identical (max |Δ| = %g)",
							g.Name(), name, workers, li, par[li].MaxAbsDiff(serial[li]))
					}
				}
			}
		}
	}
}

// Finite features can overflow inside an int8 pass. Here every vertex of a
// star carries the row that drives one column of gcn's layer 0 transform
// to +1.5e38, and the hub sums that column over 16 in-neighbours under
// DstCoef 1/4, so its aggregate dequantizes to 6e38 and reaches +Inf. The
// narrowing layer 1 transforms that row before anything else reads it. The
// pass must return a tensor.ErrNonFinite error naming layer 1, at every
// worker count, rather than panic inside a prepare worker and take the
// process down.
func TestInt8HubOverflowIsError(t *testing.T) {
	dims := []int{16, 8, 4}
	g := graph.Star(17) // leaves 1..16 → hub 0
	// Layer 0's weights, read back through its float prepare: I·W = W.
	eye := tensor.NewMatrix(dims[0], dims[0])
	for i := 0; i < dims[0]; i++ {
		eye.Set(i, i, 1)
	}
	w, _ := gnn.MustModel("gcn", dims, 3).Layers[0].Prepare(eye, 1)
	// The column with the largest |W| sum bounds every column of x·W.
	best, bestSum := 0, 0.0
	for k := 0; k < w.Cols; k++ {
		var sum float64
		for j := 0; j < w.Rows; j++ {
			sum += math.Abs(float64(w.At(j, k)))
		}
		if sum > bestSum {
			best, bestSum = k, sum
		}
	}
	c := 1.5e38 / bestSum
	x := tensor.NewMatrix(g.NumVertices(), dims[0])
	for v := 0; v < x.Rows; v++ {
		for j := 0; j < dims[0]; j++ {
			x.Set(v, j, float32(math.Copysign(c, float64(w.At(j, best)))))
		}
	}
	m := quantizedModel(t, "gcn", dims, 3)
	s := MustNew(DefaultConfig())
	for _, workers := range []int{1, 2, 8} {
		_, err := s.ForwardParallel(m, g, x, workers)
		if !errors.Is(err, tensor.ErrNonFinite) || !strings.Contains(err.Error(), "layer 1:") {
			t.Fatalf("workers=%d: got %v, want a layer 1 ErrNonFinite error", workers, err)
		}
	}
}

// Quantization is strictly opt-in: on one SCALE value, whose pooled forward
// state both tiers share, an fp32 pass after an int8 pass over a quantized
// copy of the same model is byte-identical to the fp32 pass before it.
func TestFp32UnchangedByQuantizedTier(t *testing.T) {
	g := graph.ErdosRenyi(200, 900, 5)
	m := gnn.MustModel("gcn", []int{16, 8, 4}, 3)
	x := gnn.RandomFeatures(g, 16, 9)
	s := MustNew(DefaultConfig())
	want, err := s.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Forward(quantizedModel(t, "gcn", []int{16, 8, 4}, 3), g, x); err != nil {
		t.Fatal(err)
	}
	got, err := s.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		if !got[li].Equal(want[li]) {
			t.Fatalf("layer %d: fp32 output changed after int8 runs", li)
		}
	}
}

// Both tiers share one SCALE and its pool of forward state: 8 goroutines
// alternating an fp32 copy and an int8 copy of one model must each reproduce
// their tier's serial reference byte for byte.
func TestSharedStatePoolAcrossTiers(t *testing.T) {
	g := graph.RMAT(9, 4000, 7)
	x := gnn.RandomFeatures(g, 24, 13)
	s := MustNew(DefaultConfig())
	models := []*gnn.Model{
		gnn.MustModel("gcn", []int{24, 12, 5}, 11),
		quantizedModel(t, "gcn", []int{24, 12, 5}, 11),
	}
	want := make([][]*tensor.Matrix, len(models))
	for i, m := range models {
		out, err := s.ForwardParallel(m, g, x, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for gr := 0; gr < 8; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				tier := (gr + rep) % len(models)
				got, err := s.ForwardParallel(models[tier], g, x, 1+gr%3)
				if err != nil {
					errs <- err
					return
				}
				for li := range got {
					if !got[li].Equal(want[tier][li]) {
						errs <- fmt.Errorf("goroutine %d rep %d tier %d layer %d: output differs from its serial reference", gr, rep, tier, li)
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The int8 hot path inherits the steady-state allocation discipline: the
// quantized psrc buffer and per-worker int8 scratch recycle, so a warm
// forward pass allocates only its per-layer outputs plus constant
// bookkeeping.
func TestInt8SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop cached state by design")
	}
	g := graph.ErdosRenyi(2000, 8000, 1)
	s := MustNew(DefaultConfig())
	m := quantizedModel(t, "gcn", []int{64, 16, 4}, 1)
	x := gnn.RandomFeatures(g, 64, 2)
	for i := 0; i < 3; i++ {
		if _, err := s.ForwardParallel(m, g, x, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.ForwardParallel(m, g, x, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("steady-state int8 Forward allocates %v per call (budget 24)", allocs)
	}
}
