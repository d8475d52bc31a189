package core

import (
	"testing"

	"scale/internal/core/micro"
	"scale/internal/gnn"
	"scale/internal/graph"
)

// microCombine maps a layer's reduction onto the micro ring's combine
// function; the ring's chain semantics (fold from the first source) match
// ReduceKind.Accumulate for both kinds.
func microCombine(t *testing.T, k gnn.ReduceKind) micro.Combine {
	t.Helper()
	switch k {
	case gnn.ReduceSum:
		return micro.Sum
	case gnn.ReduceMax:
		return micro.Max
	}
	t.Fatalf("no micro combine for %v", k)
	return nil
}

// The micro-vs-task-level cross-validation matrix: for every evaluated GNN
// model and three ring sizes, reduce chains built from the layer's real
// messages must (a) reproduce the direct reduction numerically and (b) land
// within the closed-form makespan band of Eq. 3's cost model,
// totalOps/S + fill (feature length + S). The single-model GCN variant of
// this check lives in functional_test.go; this is the full matrix.
func TestMicroCrossValidationMatrix(t *testing.T) {
	g := graph.ErdosRenyi(96, 768, 23)
	rings := []int{2, 4, 8}
	for _, name := range gnn.ModelNames() {
		m := gnn.MustModel(name, []int{12, 8, 4}, 31)
		l := m.Layers[0]
		combine := microCombine(t, l.Reduce())
		x := gnn.RandomFeatures(g, 12, 37)
		psrc, pdst := l.Prepare(x, 1)
		width := l.Reduce().AccWidth(l.MsgDim())

		var tasks []micro.Task
		var totalOps int64
		for v := 0; v < g.NumVertices(); v++ {
			nbrs := g.InNeighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			var pd []float32
			if pdst != nil {
				pd = pdst.Row(v)
			}
			srcs := make([][]float32, 0, len(nbrs))
			for _, u := range nbrs {
				// A sum into zeros is the edge's message, and so is a max:
				// gs-pl's prepared rows are post-ReLU.
				msg := make([]float32, width)
				l.AccumulateEdge(msg, psrc.Row(int(u)), pd, nil, gnn.EdgeContext{
					Src: int(u), Dst: v, SrcDeg: g.InDegree(int(u)), DstDeg: len(nbrs),
				})
				srcs = append(srcs, msg)
			}
			tasks = append(tasks, micro.Task{Dst: v, Sources: srcs})
			totalOps += int64(len(nbrs) * width)
		}

		for _, s := range rings {
			res, err := micro.NewRing(s).SimulateAggregation(tasks, combine)
			if err != nil {
				t.Fatalf("%s S=%d: %v", name, s, err)
			}
			// (a) Numerics: the chain result must equal the direct fold of
			// the same messages in the same order.
			for ti, task := range tasks {
				ref := append([]float32(nil), task.Sources[0]...)
				for _, src := range task.Sources[1:] {
					for e := range ref {
						ref[e] = combine(ref[e], src[e])
					}
				}
				for e := range ref {
					d := ref[e] - res.Aggregated[ti][e]
					if d < -1e-4 || d > 1e-4 {
						t.Fatalf("%s S=%d vertex %d elem %d: micro %v vs direct %v",
							name, s, task.Dst, e, res.Aggregated[ti][e], ref[e])
					}
				}
			}
			// (b) Timing: the measured makespan must track the closed-form
			// law the task-level engine schedules by.
			law := totalOps/int64(s) + int64(width) + int64(s)
			ratio := float64(res.Makespan) / float64(law)
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s S=%d: makespan %d vs law %d (ratio %.2f outside band)",
					name, s, res.Makespan, law, ratio)
			}
		}
	}
}
