package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scale/internal/graph"
)

func exampleDegrees() []int32 {
	// Fig. 8(a)-style degrees: one hub plus small-degree vertices,
	// 24 edges over 8 vertices.
	return []int32{2, 2, 3, 3, 3, 6, 3, 2}
}

func TestConfigValidate(t *testing.T) {
	if (Config{NumTasks: 0, NumGroups: 1}).Validate() == nil {
		t.Fatal("zero tasks must fail")
	}
	if (Config{NumTasks: 2, NumGroups: 3}).Validate() == nil {
		t.Fatal("groups > tasks must fail")
	}
	if (Config{NumTasks: 4, NumGroups: 2}).Validate() != nil {
		t.Fatal("valid config rejected")
	}
}

func TestScheduleRejectsBadVertices(t *testing.T) {
	_, err := Schedule([]int32{1, 2}, []int32{5}, Config{NumTasks: 2, NumGroups: 1})
	if err == nil {
		t.Fatal("out-of-range vertex must error")
	}
}

// The Fig. 8(d) walkthrough: 4 tasks over the example graph, grouped in
// pairs, gives each task ≈6 edges and each group ≈4 vertices.
func TestAlgorithm1Walkthrough(t *testing.T) {
	deg := exampleDegrees()
	groups, err := Schedule(deg, AllVertices(8), Config{NumTasks: 4, NumGroups: 2, Policy: DegreeVertexAware})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups: %d", len(groups))
	}
	for _, g := range groups {
		if g.Edges() < 10 || g.Edges() > 14 {
			t.Errorf("group %d edges = %d, want ≈12", g.ID, g.Edges())
		}
		if g.NumVertices() < 3 || g.NumVertices() > 5 {
			t.Errorf("group %d vertices = %d, want ≈4", g.ID, g.NumVertices())
		}
	}
	if eb := EdgeBalance(groups); eb < 0.8 {
		t.Errorf("edge balance %.2f too low", eb)
	}
	if vb := VertexBalance(groups); vb < 0.7 {
		t.Errorf("vertex balance %.2f too low", vb)
	}
}

// Every vertex is scheduled exactly once under every policy — the core
// correctness invariant (property-based).
func TestCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 8
		degrees := make([]int32, n)
		for i := range degrees {
			degrees[i] = int32(rng.Intn(20))
		}
		numTasks := rng.Intn(15) + 1
		numGroups := rng.Intn(numTasks) + 1
		for _, pol := range []Policy{DegreeVertexAware, DegreeAware, VertexAware} {
			groups, err := Schedule(degrees, AllVertices(n), Config{NumTasks: numTasks, NumGroups: numGroups, Policy: pol})
			if err != nil {
				return false
			}
			if len(groups) != numGroups {
				return false
			}
			seen := make(map[int32]int)
			var edges int64
			for _, g := range groups {
				for _, task := range g.Tasks {
					for _, v := range task.Vertices {
						seen[v]++
					}
					edges += task.Edges
				}
			}
			if len(seen) != n {
				return false
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
			var wantEdges int64
			for _, d := range degrees {
				wantEdges += int64(d)
			}
			if edges != wantEdges {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// First-fit bound: no task exceeds target + maxDegree (a vertex is atomic).
func TestFirstFitEdgeBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 16
		degrees := make([]int32, n)
		var total int64
		var maxDeg int64
		for i := range degrees {
			degrees[i] = int32(rng.Intn(40))
			total += int64(degrees[i])
			if int64(degrees[i]) > maxDeg {
				maxDeg = int64(degrees[i])
			}
		}
		numTasks := rng.Intn(16) + 2
		target := (total + int64(numTasks) - 1) / int64(numTasks)
		tasks := firstFit(degrees, AllVertices(n), numTasks, true)
		for _, task := range tasks {
			if task.Edges > target+maxDeg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The ablation contrast on a skewed real-shaped profile: DVS balances both
// dimensions; DS leaves vertices unbalanced; VS leaves edges unbalanced
// (Fig. 13b).
func TestPolicyContrast(t *testing.T) {
	p := graph.MustByName("cora").Profile()
	cfg := func(pol Policy) Config { return Config{NumTasks: 512, NumGroups: 32, Policy: pol} }
	dvs, err := Schedule(p.Degrees, AllVertices(p.NumVertices()), cfg(DegreeVertexAware))
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := Schedule(p.Degrees, AllVertices(p.NumVertices()), cfg(DegreeAware))
	vs, _ := Schedule(p.Degrees, AllVertices(p.NumVertices()), cfg(VertexAware))

	if eb := EdgeBalance(dvs); eb < 0.9 {
		t.Errorf("DVS edge balance %.3f, want ≥0.9", eb)
	}
	if vb := VertexBalance(dvs); vb < 0.85 {
		t.Errorf("DVS vertex balance %.3f, want ≥0.85", vb)
	}
	if eb := EdgeBalance(ds); eb < 0.9 {
		t.Errorf("DS edge balance %.3f, want ≥0.9", eb)
	}
	if vb := VertexBalance(vs); vb < 0.9 {
		t.Errorf("VS vertex balance %.3f, want ≥0.9", vb)
	}
	// The single-objective policies must be visibly worse on the other axis.
	if VertexBalance(ds) > VertexBalance(dvs) {
		t.Errorf("DS vertex balance %.3f should trail DVS %.3f", VertexBalance(ds), VertexBalance(dvs))
	}
	if EdgeBalance(vs) > 0.95*EdgeBalance(dvs) {
		t.Errorf("VS edge balance %.3f should trail DVS %.3f", EdgeBalance(vs), EdgeBalance(dvs))
	}
}

func TestBatches(t *testing.T) {
	bs := BatchesOf(AllVertices(10), 4)
	if len(bs) != 3 || len(bs[0]) != 4 || len(bs[2]) != 2 {
		t.Fatalf("Batches: %v", bs)
	}
	if bs[2][1] != 9 {
		t.Fatalf("last batch contents: %v", bs[2])
	}
	if len(BatchesOf(AllVertices(5), 0)) != 1 {
		t.Fatal("b<1 should yield one batch")
	}
}

func TestBalanceMetric(t *testing.T) {
	if Balance(nil) != 1 || Balance([]int64{0, 0}) != 1 {
		t.Fatal("degenerate balance should be 1")
	}
	if b := Balance([]int64{10, 10, 10}); b != 1 {
		t.Fatalf("perfect balance = %v", b)
	}
	if b := Balance([]int64{30, 0, 0}); b < 0.32 && b > 0.34 {
		t.Fatalf("skewed balance = %v", b)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{DegreeVertexAware, DegreeAware, VertexAware} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	p := graph.MustByName("citeseer").Profile()
	cfg := Config{NumTasks: 64, NumGroups: 8, Policy: DegreeVertexAware}
	a, _ := Schedule(p.Degrees, AllVertices(p.NumVertices()), cfg)
	b, _ := Schedule(p.Degrees, AllVertices(p.NumVertices()), cfg)
	for i := range a {
		if a[i].Edges() != b[i].Edges() || a[i].NumVertices() != b[i].NumVertices() {
			t.Fatal("schedule not deterministic")
		}
	}
}

// firstFit is Algorithm 1's First_Fit: bins are fixed at numTasks and each
// bin targets ceil(totalEdges/numTasks) edges. We instantiate the
// unspecified vertex iteration order as degree-descending (first-fit
// decreasing, the standard bin-packing refinement): power-law hubs whose
// degree exceeds the target then land one-per-bin through the least-loaded
// fallback instead of colliding, which is what lets the wrap-around ring
// mapping (§III-B) absorb them. Retained as the test seam for the binning
// phase alone; production paths go through Scheduler.
func firstFit(degrees []int32, batch []int32, numTasks int, rotate bool) []*Task {
	s, err := NewScheduler(Config{NumTasks: numTasks, NumGroups: 1}, true)
	if err != nil {
		panic(err)
	}
	if err := s.sortByDegreeDesc(degrees, batch); err != nil {
		panic(err)
	}
	s.binFirstFit(degrees, s.order, rotate)
	return s.taskPtrs
}

// BatchesOf splits the vertex slice into consecutive subslices of size b
// without copying, so one backing slice (e.g. graph.Profile.Vertices) serves
// every batching granularity.
func BatchesOf(all []int32, b int) [][]int32 {
	n := len(all)
	if b < 1 {
		b = n
	}
	var out [][]int32
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		out = append(out, all[start:end])
	}
	return out
}
