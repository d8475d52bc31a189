// scale-verify runs the reproduction's validation chain end to end and
// prints a report: (1) the SCALE functional dataflow against the golden
// reference for every model, (2) the register-level pipeline against both
// the golden numerics and the task-level cycle laws, and (3) the calibrated
// anchor results against the paper's published averages. It is the
// release-readiness self-check: exit status 0 means every layer of the
// simulator agrees.
//
// Exit codes: 0 all layers agree, 3 a validation layer failed or errored
// (see internal/cli). SIGINT/SIGTERM stop the chain between sections.
package main

import (
	"context"
	"errors"
	"fmt"

	"scale/internal/bench"
	"scale/internal/cli"
	"scale/internal/core"
	"scale/internal/core/micro"
	"scale/internal/gnn"
	"scale/internal/graph"
)

func main() { cli.Main("scale-verify", run) }

var failed bool

func check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		failed = true
	}
	fmt.Printf("[%s] %s\n", status, fmt.Sprintf(format, args...))
}

func run(ctx context.Context) error {
	fmt.Println("== 1. functional dataflow vs golden reference ==")
	g := graph.PreferentialAttachment(400, 3, 11)
	accel, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	for _, name := range gnn.AllModelNames() {
		m, err := gnn.NewModel(name, []int{20, 12, 5}, 7)
		if err != nil {
			return err
		}
		x := gnn.RandomFeatures(g, 20, 9)
		want, err := gnn.Forward(m, g, x)
		if err != nil {
			check(false, "%s: reference failed: %v", name, err)
			continue
		}
		got, err := accel.ForwardContext(ctx, m, g, x, 0)
		if err != nil {
			check(false, "%s: dataflow failed: %v", name, err)
			continue
		}
		diff := want[len(want)-1].MaxAbsDiff(got[len(got)-1])
		check(want[len(want)-1].AllClose(got[len(got)-1], 1e-3, 1e-4),
			"%-8s dataflow matches reference (max diff %.2g)", name, diff)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	fmt.Println("\n== 2. register-level pipeline vs numerics and cycle laws ==")
	m, err := gnn.NewModel("gcn", []int{16, 8}, 5)
	if err != nil {
		return err
	}
	x := gnn.RandomFeatures(g, 16, 13)
	want, err := gnn.Forward(m, g, x)
	if err != nil {
		return err
	}
	pl, err := micro.NewPipeline(2, 8, 4)
	if err != nil {
		return err
	}
	res, err := pl.RunLayer(m.Layers[0], g, x)
	if err != nil {
		return err
	}
	check(want[0].AllClose(res.Outputs, 1e-3, 1e-4),
		"pipeline numerics match reference (max diff %.2g)", want[0].MaxAbsDiff(res.Outputs))
	law := int64(g.NumEdges()) * int64(m.Layers[0].Work().MsgDim) / int64(pl.Seg.NumPEs())
	ratio := float64(res.AggCycles) / float64(law)
	check(ratio > 0.5 && ratio < 2.5,
		"pipeline aggregation within 2x of the task-level law (ratio %.2f)", ratio)
	check(res.AggUtilization > 0.3 && res.AggUtilization <= 1,
		"pipeline aggregation utilization plausible (%.0f%%)", 100*res.AggUtilization)
	if err := ctx.Err(); err != nil {
		return err
	}

	fmt.Println("\n== 3. calibrated anchors vs published averages ==")
	s := bench.NewSuite()
	sum, err := s.Fig10Summary()
	if err != nil {
		return err
	}
	anchor := func(name string, got, paper, tol float64) {
		check(got > paper*(1-tol) && got < paper*(1+tol),
			"%-24s measured %.2fx vs paper %.2fx", name, got, paper)
	}
	anchor("SCALE/AWB-GCN (GCN)", sum.VsAWBGCN, 1.62, 0.25)
	anchor("SCALE/GCNAX (GCN)", sum.VsGCNAX, 2.01, 0.25)
	anchor("SCALE/FlowGNN (MP)", sum.VsFlowGNN, 1.57, 0.25)
	anchor("SCALE/ReGNN (MP)", sum.VsReGNN, 1.80, 0.25)
	anchor("overall speedup", sum.Overall, 1.82, 0.25)
	utils, err := s.Fig13aSummary()
	if err != nil {
		return err
	}
	check(utils["SCALE"].Agg > 0.92 && utils["SCALE"].Update > 0.92,
		"SCALE utilization %.1f%%/%.1f%% vs paper 98.7%%/97.3%%",
		100*utils["SCALE"].Agg, 100*utils["SCALE"].Update)
	e, err := s.Fig15Numbers()
	if err != nil {
		return err
	}
	check(e.DRAMReduction > 0.2 && e.GBReduction > 0.35 && e.LocalRatio > 3,
		"energy shape: DRAM -%.0f%%, GB -%.0f%%, local x%.1f (paper -36.8%%, -53.2%%, x5.72)",
		100*e.DRAMReduction, 100*e.GBReduction, e.LocalRatio)

	if failed {
		fmt.Println()
		return errors.New("verification FAILED")
	}
	fmt.Println("\nall validation layers agree")
	return nil
}
