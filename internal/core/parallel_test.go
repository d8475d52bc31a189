package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

// The acceptance property of the parallel engine: for every model in the zoo
// and both graph shapes (uniform Erdős–Rényi and power-law RMAT), the
// parallel functional execution is byte-identical to the serial sweep —
// workers partition whole task groups and each vertex's reduce chain keeps
// its mapping order, so no float is reassociated.
func TestForwardParallelBitIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	s := MustNew(DefaultConfig())
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := gnn.MustModel(name, []int{24, 12, 5}, 11)
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
						t.Fatalf("%s/%s workers=%d layer %d: output not byte-identical (max |Δ| = %g)",
							g.Name(), name, workers, li, par[li].MaxAbsDiff(serial[li]))
					}
				}
			}
		}
	}
}

// Forward (the GOMAXPROCS default) must agree byte-for-byte with the
// explicit serial path — the public API's parallelism is unobservable.
func TestForwardDefaultMatchesSerial(t *testing.T) {
	g := graph.ErdosRenyi(200, 900, 5)
	s := MustNew(DefaultConfig())
	m := gnn.MustModel("ggcn", []int{16, 8, 4}, 3)
	x := gnn.RandomFeatures(g, 16, 9)
	want, err := s.ForwardParallel(m, g, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		if !got[li].Equal(want[li]) {
			t.Fatalf("layer %d: Forward diverges from serial", li)
		}
	}
}

// Steady-state Forward performs no per-vertex or per-edge allocation: after
// the pooled executor state is warm, a whole serial forward pass allocates
// only its per-layer result matrices plus a constant amount of bookkeeping.
// The budget is deliberately far below the vertex count, so any per-vertex
// allocation sneaking back into the hot loop fails loudly.
func TestForwardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop cached state by design")
	}
	g := graph.ErdosRenyi(2000, 8000, 1)
	s := MustNew(DefaultConfig())
	m := gnn.MustModel("gcn", []int{64, 16, 4}, 1)
	x := gnn.RandomFeatures(g, 64, 2)
	// Warm the pool (scratch, schedulers, seen table).
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
	// 2 layers × (output matrix + header + closure) + outs slice + pool
	// bookkeeping ≈ 10; anything O(V) or O(E) would be thousands.
	if allocs > 24 {
		t.Fatalf("steady-state Forward allocates %v per call (budget 24)", allocs)
	}
}

// TestForwardSteadyStateBytes holds a warm forward pass to its output
// matrices plus a small fixed slack in bytes, where the allocation-count
// budgets above would let one more |V|×out matrix per layer through (for
// instance the transformed rows of a narrowing layer, which the executor
// recycles). gcn [64, 16, 4] narrows at both layers; the int8 copy keeps
// natural order. The collector is paused while the test measures, so a
// GC cannot empty the state pool mid-run.
func TestForwardSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop cached state by design")
	}
	g := graph.ErdosRenyi(2000, 8000, 1)
	x := gnn.RandomFeatures(g, 64, 2)
	s := MustNew(DefaultConfig())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The three layer outputs' backing arrays.
	outBytes := uint64(4 * g.NumVertices() * (16 + 4))
	const slack = 8 << 10
	for _, m := range []*gnn.Model{
		gnn.MustModel("gcn", []int{64, 16, 4}, 1),
		quantizedModel(t, "gcn", []int{64, 16, 4}, 1),
	} {
		forward := func() {
			if _, err := s.ForwardParallel(m, g, x, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			forward()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			forward()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B per call, outputs %d B", m, per, outBytes)
		if per > outBytes+slack {
			t.Fatalf("%s: steady-state Forward allocates %d B per call (outputs %d B + slack %d B)",
				m, per, outBytes, slack)
		}
	}
}
