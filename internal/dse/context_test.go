package dse

import (
	"context"
	"errors"
	"testing"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
)

func exploreWorkload(t *testing.T) (*gnn.Model, *graph.Profile) {
	t.Helper()
	m, err := gnn.NewModel("gcn", []int{64, 16, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	degrees := make([]int32, 256)
	for i := range degrees {
		degrees[i] = int32(i%7 + 1)
	}
	return m, graph.NewProfile("ctx-test", degrees)
}

// TestExploreContextCancelled proves a cancelled exploration stops at a
// design-point boundary and reports the context's error.
func TestExploreContextCancelled(t *testing.T) {
	m, p := exploreWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := ExploreContext(ctx, DefaultSpace(), m, p, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestExploreContextMatchesExplore pins that the context path changes
// nothing when uncancelled: same points, same order.
func TestExploreContextMatchesExplore(t *testing.T) {
	m, p := exploreWorkload(t)
	space := Space{Geometries: [][2]int{{16, 16}, {32, 16}}, GBBytes: []int64{4 << 20}, UpdateBufBytes: []int64{4 << 10}}
	want, err := ExploreContext(context.Background(), space, m, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExploreContext(context.Background(), space, m, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExploreEmptySpaceIsTypedConfigError pins the empty-space error class.
func TestExploreEmptySpaceIsTypedConfigError(t *testing.T) {
	m, p := exploreWorkload(t)
	if _, err := ExploreContext(context.Background(), Space{}, m, p, 1); !errors.Is(err, fault.ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

// TestSafeEvaluateContainsPanics proves a panicking point evaluation
// surfaces as a typed error naming the design point.
func TestSafeEvaluateContainsPanics(t *testing.T) {
	_, p := exploreWorkload(t)
	// A nil layer makes the simulator call through a nil interface — a
	// stand-in for any kernel panic inside one design point's evaluation.
	broken := &gnn.Model{ModelName: "broken", Layers: []gnn.Layer{nil}}
	cand := Point{Rows: 16, Cols: 16, GBBytes: 4 << 20, UpdateBufBytes: 4 << 10}
	_, err := safeEvaluate(cand, broken, p)
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *fault.PanicError", err)
	}
}
