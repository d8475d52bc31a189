// Custom message passing: define a GNN layer that does not exist in any
// library — a degree-discounted max-pool with a residual linear update —
// purely from closures (the Eq. 1-2 pieces), then run it through the golden
// reference, the SCALE functional dataflow, and the timing models of every
// accelerator that can execute it. This is the paper's §III-B claim made
// concrete: any commutative-associative reduction rides the ring unchanged.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"scale/internal/baseline"
	"scale/internal/core"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

func main() {
	const in, out = 256, 32
	rng := rand.New(rand.NewSource(7))
	w := tensor.GlorotMatrix(rng, in, out)
	wSelf := tensor.GlorotMatrix(rng, in, out)

	layer, err := gnn.NewCustomLayer(gnn.CustomSpec{
		Name: "deg-max-residual", InDim: in, MsgDim: in, OutDim: out,
		Reduce: gnn.ReduceMax,
		// Message: each neighbor's features discounted by its own degree
		// (hubs shout less), an edge-wise op no SpMM can express.
		Message: func(msg, psrc, pdst []float32, ctx gnn.EdgeContext) {
			scale := float32(1 / math.Sqrt(float64(ctx.SrcDeg)+1))
			for i, v := range psrc {
				msg[i] = scale * v
			}
		},
		// UpdateInto: residual combination of the pooled message and self.
		UpdateInto: func(dst, hself, agg []float32) {
			tensor.VecMatInto(dst, agg, w)
			s := tensor.VecMat(hself, wSelf)
			for i := range dst {
				dst[i] += s[i]
			}
			tensor.ReLU(dst)
		},
		Work: gnn.LayerWork{
			GateOpsPerEdge:      in, // the per-edge discount
			ReduceOpsPerEdge:    in,
			UpdateMACsPerVertex: 2*int64(in)*int64(out) + int64(out),
			WeightBytes:         4 * 2 * int64(in) * int64(out),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := gnn.CustomModel("custom-gnn", layer)
	if err != nil {
		log.Fatal(err)
	}

	// Functional: SCALE's scheduled dataflow must match the reference.
	g := graph.PreferentialAttachment(20000, 4, 3)
	x := gnn.RandomFeatures(g, in, 5)
	want, err := gnn.Forward(model, g, x)
	if err != nil {
		log.Fatal(err)
	}
	accel := core.MustNew(core.DefaultConfig())
	got, err := accel.Forward(model, g, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom layer %q over %v\n", layer.Name(), g)
	fmt.Printf("dataflow vs reference max diff: %.2g\n\n", want[0].MaxAbsDiff(got[0]))

	// Timing: the layer declares its workload, so every message passing
	// accelerator can be compared on it immediately.
	p := graph.ProfileOf(g)
	r, err := accel.Run(model, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %8d cycles (util %.0f%%/%.0f%%)\n", "SCALE", r.Cycles, 100*r.AggUtil, 100*r.UpdateUtil)
	for _, b := range baseline.All(1024) {
		if !b.Supports(model) {
			fmt.Printf("%-8s cannot execute %s (SpMM-only, Table I)\n", b.Name(), model.Name())
			continue
		}
		br, err := b.Run(model, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8d cycles (%.2fx vs SCALE)\n", b.Name(), br.Cycles,
			float64(br.Cycles)/float64(r.Cycles))
	}
}
