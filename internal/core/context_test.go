package core

import (
	"context"
	"errors"
	"testing"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

func forwardFixture(t *testing.T) (*SCALE, *gnn.Model, *graph.Graph, *tensor.Matrix) {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.CommunityGraph(96, 4, 3, 7)
	m, err := gnn.NewModel("gcn", []int{8, 4, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandomMatrix(randNew(3), g.NumVertices(), 8, 1)
	return s, m, g, x
}

// TestForwardContextCancelled proves a cancelled forward pass stops at a
// scheduling-batch boundary with the context's error, layer-attributed.
func TestForwardContextCancelled(t *testing.T) {
	s, m, g, x := forwardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ForwardContext(ctx, m, g, x, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForwardContextMatchesForward pins that the context path is the
// identity when uncancelled: bit-identical outputs.
func TestForwardContextMatchesForward(t *testing.T) {
	s, m, g, x := forwardFixture(t)
	want, err := s.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ForwardContext(context.Background(), m, g, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		for i := range want[li].Data {
			if got[li].Data[i] != want[li].Data[i] {
				t.Fatalf("layer %d element %d: %v != %v", li, i, got[li].Data[i], want[li].Data[i])
			}
		}
	}
}

// TestForwardShapeErrorsAreTyped pins the ErrBadShape class on mismatched
// inputs.
func TestForwardShapeErrorsAreTyped(t *testing.T) {
	s, m, g, _ := forwardFixture(t)
	bad := tensor.NewMatrix(g.NumVertices()+1, 8)
	if _, err := s.Forward(m, g, bad); !errors.Is(err, fault.ErrBadShape) {
		t.Errorf("row mismatch: err = %v, want ErrBadShape", err)
	}
	bad = tensor.NewMatrix(g.NumVertices(), 9)
	if _, err := s.Forward(m, g, bad); !errors.Is(err, fault.ErrBadShape) {
		t.Errorf("col mismatch: err = %v, want ErrBadShape", err)
	}
}

// TestForwardContainsWorkerPanics proves a panic inside a worker's kernel
// chain surfaces as a typed per-layer error instead of killing the process.
func TestForwardContainsWorkerPanics(t *testing.T) {
	s, _, g, x := forwardFixture(t)
	broken := &gnn.Model{ModelName: "broken", Layers: []gnn.Layer{panicLayer{}}}
	_, err := s.Forward(broken, g, x)
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *fault.PanicError", err)
	}
}

// panicLayer is a minimal layer whose aggregation kernel panics, standing in
// for any shape violation deep inside the fused per-edge kernels. The
// embedded nil Layer satisfies the interface; only the methods the forward
// path reaches before the panic are implemented.
type panicLayer struct{ gnn.Layer }

func (panicLayer) Name() string           { return "panic" }
func (panicLayer) Work() gnn.LayerWork    { return gnn.LayerWork{InDim: 8, MsgDim: 4, OutDim: 4} }
func (panicLayer) InDim() int             { return 8 }
func (panicLayer) OutDim() int            { return 4 }
func (panicLayer) MsgDim() int            { return 4 }
func (panicLayer) UpdateScratch() int     { return 0 }
func (panicLayer) Reduce() gnn.ReduceKind { return gnn.ReduceSum }
func (panicLayer) Prepare(h *tensor.Matrix, workers int) (psrc, pdst *tensor.Matrix) {
	return h, nil
}
func (panicLayer) AccumulateEdge(acc, src, dst, msg []float32, ctx gnn.EdgeContext) {
	panic("kernel shape violation")
}
