package micro

import (
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
)

// The register-level pipeline must reproduce the golden reference layer
// output exactly (up to float reassociation along the reduce chains).
func TestPipelineMatchesReference(t *testing.T) {
	g := graph.ErdosRenyi(120, 480, 7)
	m := gnn.MustModel("gcn", []int{12, 6}, 3)
	x := gnn.RandomFeatures(g, 12, 5)
	want, err := gnn.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.RunLayer(m.Layers[0], g, x)
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].AllClose(res.Outputs, 1e-3, 1e-4) {
		t.Fatalf("pipeline diverged: max diff %g", want[0].MaxAbsDiff(res.Outputs))
	}
	if res.TotalCycles <= 0 || res.AggCycles <= 0 || res.UpdateCycles <= 0 {
		t.Fatalf("missing cycles: %+v", res)
	}
	if res.AggUtilization <= 0 || res.AggUtilization > 1 {
		t.Fatalf("utilization %v", res.AggUtilization)
	}
	if res.TotalCycles < res.UpdateCycles || res.TotalCycles < res.AggCycles {
		t.Fatal("total must bound the phases")
	}
}

// Isolated vertices still produce Eq. 2 updates of the zero aggregation.
func TestPipelineIsolatedVertices(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Build("sparse")
	m := gnn.MustModel("gcn", []int{4, 3}, 9)
	x := gnn.RandomFeatures(g, 4, 2)
	want, err := gnn.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := NewPipeline(1, 2, 2)
	res, err := pl.RunLayer(m.Layers[0], g, x)
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].AllClose(res.Outputs, 1e-4, 1e-5) {
		t.Fatal("isolated-vertex outputs diverged")
	}
}

// Every scheduling policy must yield the same numerics through the pipeline.
func TestPipelinePolicyInvariance(t *testing.T) {
	g := graph.PreferentialAttachment(80, 2, 3)
	m := gnn.MustModel("gcn", []int{8, 4}, 11)
	x := gnn.RandomFeatures(g, 8, 13)
	var first *PipelineResult
	for _, pol := range []sched.Policy{sched.DegreeVertexAware, sched.DegreeAware, sched.VertexAware} {
		pl, _ := NewPipeline(2, 4, 4)
		pl.Policy = pol
		res, err := pl.RunLayer(m.Layers[0], g, x)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if !first.Outputs.AllClose(res.Outputs, 1e-4, 1e-5) {
			t.Fatalf("policy %v changed the numerics", pol)
		}
	}
}

// The pipeline rejects layers outside the register-level update contract.
func TestPipelineRejectsRichLayers(t *testing.T) {
	g := graph.Path(4)
	x := gnn.RandomFeatures(g, 6, 1)
	pl, _ := NewPipeline(1, 2, 2)
	gin := gnn.MustModel("gin", []int{6, 3}, 1)
	if _, err := pl.RunLayer(gin.Layers[0], g, x); err == nil {
		t.Fatal("MLP update must be rejected")
	}
	sage := gnn.MustModel("gs-pl", []int{6, 3}, 1)
	if _, err := pl.RunLayer(sage.Layers[0], g, x); err == nil {
		t.Fatal("max reduction must be rejected")
	}
	gcn := gnn.MustModel("gcn", []int{6, 3}, 1)
	if _, err := pl.RunLayer(gcn.Layers[0], g, gnn.RandomFeatures(g, 5, 1)); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
}

// Cross-validation of the task-level cycle law: the register-level
// aggregation makespan must stay within 2× of ops/(rings·S) for a saturated
// array, pinning the closed form the core engine uses.
func TestPipelineAgreesWithTaskLevelLaw(t *testing.T) {
	g := graph.ErdosRenyi(400, 3200, 17)
	m := gnn.MustModel("gcn", []int{16, 8}, 5)
	x := gnn.RandomFeatures(g, 16, 7)
	pl, _ := NewPipeline(2, 8, 4) // 4 rings of 4 PEs
	res, err := pl.RunLayer(m.Layers[0], g, x)
	if err != nil {
		t.Fatal(err)
	}
	law := int64(g.NumEdges()) * int64(m.Layers[0].Work().MsgDim) / int64(pl.Seg.NumPEs())
	ratio := float64(res.AggCycles) / float64(law)
	if ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("micro agg %d vs law %d (ratio %.2f)", res.AggCycles, law, ratio)
	}
}

func TestNewPipelineValidates(t *testing.T) {
	if _, err := NewPipeline(0, 2, 2); err == nil {
		t.Fatal("bad geometry must error")
	}
}
