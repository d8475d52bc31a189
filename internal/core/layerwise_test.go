package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
)

// Chaining ForwardLayerContext layer by layer must reproduce ForwardContext
// bit for bit — this is the contract the sharded serving tier's per-layer
// halo exchange is built on.
func TestForwardLayerChainBitIdentical(t *testing.T) {
	s := MustNew(DefaultConfig())
	g := graph.CommunityGraph(300, 6, 10, 11)
	for _, model := range []string{"gcn", "ggcn", "gs-pl", "gin", "gat"} {
		m := gnn.MustModel(model, []int{12, 8, 5}, 1)
		x := gnn.RandomFeatures(g, 12, 3)
		want, err := s.ForwardContext(context.Background(), m, g, x, 1)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		h := x
		for li := range m.Layers {
			out, err := s.ForwardLayerContext(context.Background(), m, li, g, h, nil, 1)
			if err != nil {
				t.Fatalf("%s layer %d: %v", model, li, err)
			}
			wl := want[li]
			if out.Rows != wl.Rows || out.Cols != wl.Cols {
				t.Fatalf("%s layer %d: shape %dx%d, want %dx%d", model, li, out.Rows, out.Cols, wl.Rows, wl.Cols)
			}
			for i, v := range out.Data {
				if v != wl.Data[i] {
					t.Fatalf("%s layer %d: element %d differs: %v vs %v", model, li, i, v, wl.Data[i])
				}
			}
			h = out
		}
	}
}

// Explicit degrees equal to the graph's own are a no-op; mismatched lengths
// and out-of-range layer indices are typed input errors.
func TestForwardLayerDegreesAndValidation(t *testing.T) {
	s := MustNew(DefaultConfig())
	g := graph.ErdosRenyi(120, 600, 7)
	m := gnn.MustModel("gcn", []int{6, 4}, 1)
	x := gnn.RandomFeatures(g, 6, 5)

	want, err := s.ForwardLayerContext(context.Background(), m, 0, g, x, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ForwardLayerContext(context.Background(), m, 0, g, x, g.Degrees(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("explicit own-degrees changed element %d: %v vs %v", i, v, want.Data[i])
		}
	}

	if _, err := s.ForwardLayerContext(context.Background(), m, 2, g, x, nil, 1); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("layer out of range: err = %v, want ErrBadConfig", err)
	}
	if _, err := s.ForwardLayerContext(context.Background(), m, -1, g, x, nil, 1); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("negative layer: err = %v, want ErrBadConfig", err)
	}
	if _, err := s.ForwardLayerContext(context.Background(), m, 0, g, x, make([]int32, 3), 1); !errors.Is(err, fault.ErrBadShape) {
		t.Fatalf("short degrees: err = %v, want ErrBadShape", err)
	}
	negative := g.Degrees()
	negative[7] = -1
	if _, err := s.ForwardLayerContext(context.Background(), m, 0, g, x, negative, 1); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("negative degree: err = %v, want ErrBadGraph", err)
	}

	// An override reaches only the message functions. The schedule runs on
	// g's own in-degrees, so a huge override sizes no scheduler table.
	huge := g.Degrees()
	huge[7] = 1 << 26
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.ForwardLayerContext(context.Background(), m, 0, g, x, huge, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("a 1<<26 degree override allocated %d bytes, want < 16 MB", got)
	}
}
