package dse

import (
	"context"
	"testing"
	"testing/quick"

	"scale/internal/gnn"
	"scale/internal/graph"
)

func workload() (*gnn.Model, *graph.Profile) {
	d := graph.MustByName("cora")
	return gnn.MustModel("gcn", d.FeatureDims, 1), d.Profile()
}

func TestExploreCoversSpace(t *testing.T) {
	space := Space{
		Geometries:     [][2]int{{16, 16}, {32, 16}},
		GBBytes:        []int64{4 << 20},
		UpdateBufBytes: []int64{4 << 10},
	}
	m, p := workload()
	points, err := ExploreContext(context.Background(), space, m, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != space.Size() {
		t.Fatalf("points = %d, want %d", len(points), space.Size())
	}
	for _, pt := range points {
		if pt.Cycles <= 0 || pt.AreaMM2 <= 0 || pt.EnergyPJ <= 0 {
			t.Fatalf("unevaluated point: %+v", pt)
		}
		if pt.String() == "" {
			t.Fatal("empty point string")
		}
	}
	// More MACs at equal buffers: fewer cycles, more area.
	small, big := points[0], points[1]
	if small.MACs() > big.MACs() {
		small, big = big, small
	}
	if big.Cycles >= small.Cycles {
		t.Fatalf("bigger array should be faster: %d vs %d", big.Cycles, small.Cycles)
	}
	if big.AreaMM2 <= small.AreaMM2 {
		t.Fatalf("bigger array should be larger: %.1f vs %.1f", big.AreaMM2, small.AreaMM2)
	}
}

func TestExploreEmptySpace(t *testing.T) {
	m, p := workload()
	if _, err := ExploreContext(context.Background(), Space{}, m, p, 1); err == nil {
		t.Fatal("empty space must error")
	}
}

func TestDefaultSpaceExplores(t *testing.T) {
	m, p := workload()
	points, err := ExploreContext(context.Background(), DefaultSpace(), m, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != DefaultSpace().Size() {
		t.Fatalf("points = %d, want %d", len(points), DefaultSpace().Size())
	}
	front := Pareto(points)
	if len(front) == 0 || len(front) > len(points) {
		t.Fatalf("front size %d of %d", len(front), len(points))
	}
	// The front must be sorted by cycles and strictly improving in area
	// as cycles grow (the definition of a 2-D Pareto staircase).
	for i := 1; i < len(front); i++ {
		if front[i].Cycles < front[i-1].Cycles {
			t.Fatal("front not sorted")
		}
		if front[i].AreaMM2 >= front[i-1].AreaMM2 {
			t.Fatalf("front not a staircase: %+v then %+v", front[i-1], front[i])
		}
	}
}

// Property: no Pareto point is dominated by any input point.
func TestParetoNonDominatedProperty(t *testing.T) {
	f := func(seed int64) bool {
		pts := syntheticPoints(seed, 40)
		front := Pareto(pts)
		for _, fp := range front {
			for _, q := range pts {
				if q.Cycles <= fp.Cycles && q.AreaMM2 <= fp.AreaMM2 &&
					(q.Cycles < fp.Cycles || q.AreaMM2 < fp.AreaMM2) {
					return false
				}
			}
		}
		// Every non-front point must be dominated by some front point.
		inFront := func(p Point) bool {
			for _, fp := range front {
				if fp == p {
					return true
				}
			}
			return false
		}
		for _, q := range pts {
			if inFront(q) {
				continue
			}
			dominated := false
			for _, fp := range front {
				if fp.Cycles <= q.Cycles && fp.AreaMM2 <= q.AreaMM2 {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func syntheticPoints(seed int64, n int) []Point {
	pts := make([]Point, n)
	s := uint64(seed)
	next := func() int64 {
		s = s*6364136223846793005 + 1442695040888963407
		return int64(s>>33)%1000 + 1
	}
	for i := range pts {
		pts[i] = Point{Cycles: next(), AreaMM2: float64(next()), EnergyPJ: float64(next())}
	}
	return pts
}

func TestBestUnderArea(t *testing.T) {
	pts := []Point{
		{Cycles: 100, AreaMM2: 50},
		{Cycles: 60, AreaMM2: 80},
		{Cycles: 40, AreaMM2: 120},
	}
	best, err := BestUnderArea(pts, 90)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cycles != 60 {
		t.Fatalf("best under 90mm² = %+v", best)
	}
	if _, err := BestUnderArea(pts, 10); err == nil {
		t.Fatal("impossible budget must error")
	}
}

func TestBestEDP(t *testing.T) {
	pts := []Point{
		{Cycles: 100, EnergyPJ: 10}, // EDP 1000
		{Cycles: 50, EnergyPJ: 15},  // EDP 750
	}
	best, err := BestEDP(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cycles != 50 {
		t.Fatalf("BestEDP = %+v", best)
	}
	if _, err := BestEDP(nil); err == nil {
		t.Fatal("empty points must error")
	}
}

// MACs returns the point's MAC count.
func (p Point) MACs() int { return p.Rows * p.Cols * 2 }
