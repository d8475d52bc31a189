// Package scale is the public API of the SCALE reproduction: a
// structure-centric accelerator for message passing graph neural networks
// (Yin, Gandham, Lin, Zheng — MICRO 2024), rebuilt as a Go library.
//
// The package simulates GNN inference on the SCALE accelerator and on the
// four baseline accelerators the paper compares against (AWB-GCN, GCNAX,
// ReGNN, FlowGNN), over the Table II datasets or user-supplied graphs, and
// regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	sim, _ := scale.New(scale.Options{})
//	report, _ := sim.Simulate("gcn", "cora")
//	fmt.Println(report)
//
// See examples/ for runnable programs and DESIGN.md for the system design.
package scale

import (
	"fmt"
	"strings"

	"scale/internal/arch"
	"scale/internal/baseline"
	"scale/internal/bench"
	"scale/internal/core"
	"scale/internal/energy"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
)

// Options configures a Simulator. The zero value reproduces the paper's
// §VII-A evaluation point: a 32×16 PE array (1024 MACs), 4 MB global buffer,
// 6 KB local buffers, HBM at 256 GB/s, 1 GHz, degree and vertex-aware
// scheduling with analytically chosen batch sizes and Eq. 3 ring sizing.
type Options struct {
	// MACs selects the MAC budget: 512, 1024 (default), 2048, or 4096.
	MACs int
	// RingSize forces a fixed ring size (0 = Eq. 3 per layer).
	RingSize int
	// BatchSize forces the scheduling batch (0 = §IV-B analytical model).
	BatchSize int
	// Scheduling selects the policy: "dvs" (default, Algorithm 1),
	// "degree" (S+DS ablation), or "vertex" (S+VS ablation).
	Scheduling string
}

// Simulator runs GNN workloads through the SCALE accelerator model. Its
// Sessions, at every precision, share its one accelerator and state pool.
type Simulator struct {
	accel *core.SCALE
}

// Precisions lists the execution precisions a Session accepts: "fp32" (the
// default — bit-identical to prior releases) and "int8" (quantized weights
// and aggregation; see the README's Precision section for the accuracy
// contract).
func Precisions() []string { return []string{"fp32", "int8"} }

// New builds a Simulator.
func New(opts Options) (*Simulator, error) {
	macs := opts.MACs
	if macs == 0 {
		macs = 1024
	}
	cfg, err := core.ConfigForMACs(macs)
	if err != nil {
		return nil, err
	}
	cfg.RingSize = opts.RingSize
	cfg.BatchSize = opts.BatchSize
	switch opts.Scheduling {
	case "", "dvs":
		cfg.Policy = sched.DegreeVertexAware
	case "degree":
		cfg.Policy = sched.DegreeAware
	case "vertex":
		cfg.Policy = sched.VertexAware
	default:
		return nil, fmt.Errorf("scale: unknown scheduling policy %q", opts.Scheduling)
	}
	accel, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{accel: accel}, nil
}

// Report summarizes one simulated run.
type Report struct {
	Accelerator string
	Model       string
	Dataset     string
	// Cycles is the end-to-end execution latency at the design clock.
	Cycles int64
	// Milliseconds is Cycles at 1 GHz.
	Milliseconds float64
	// AggUtilization and UpdateUtilization are the Fig. 13 phase means.
	AggUtilization, UpdateUtilization float64
	// EnergyMillijoules estimates total energy (Fig. 15 model).
	EnergyMillijoules float64
	// Breakdown shares of total latency (Fig. 11 categories).
	AggShare, UpdateShare, CommShare, SchedShare, MemShare float64
}

func reportOf(r *arch.Result) Report {
	e := energy.Estimate(energy.DefaultParams(), r.Traffic, r.Cycles)
	total := float64(r.Cycles)
	if total == 0 {
		total = 1
	}
	return Report{
		Accelerator:       r.Accelerator,
		Model:             r.Model,
		Dataset:           r.Dataset,
		Cycles:            r.Cycles,
		Milliseconds:      float64(r.Cycles) / 1e6,
		AggUtilization:    r.AggUtil,
		UpdateUtilization: r.UpdateUtil,
		EnergyMillijoules: e.Total() / 1e9, // pJ → mJ
		AggShare:          float64(r.Breakdown.Agg) / total,
		UpdateShare:       float64(r.Breakdown.Update) / total,
		CommShare:         float64(r.Breakdown.ExposedComm) / total,
		SchedShare:        float64(r.Breakdown.Sched) / total,
		MemShare:          float64(r.Breakdown.MemStall) / total,
	}
}

// String renders the report in one line.
func (r Report) String() string {
	return fmt.Sprintf("%s %s/%s: %d cycles (%.3f ms), util agg=%.1f%% upd=%.1f%%, %.2f mJ",
		r.Accelerator, r.Model, r.Dataset, r.Cycles, r.Milliseconds,
		100*r.AggUtilization, 100*r.UpdateUtilization, r.EnergyMillijoules)
}

// Models lists the supported GNN models: gcn, ggcn, gs-pl, gin, gat.
func Models() []string { return gnn.AllModelNames() }

// Datasets lists the Table II datasets: cora, citeseer, pubmed, nell, reddit.
func Datasets() []string { return graph.DatasetNames() }

// Simulate runs the named model on the named Table II dataset (full-size
// structure profile, per-layer Table II feature lengths).
func (s *Simulator) Simulate(model, dataset string) (Report, error) {
	d, err := graph.ByName(dataset)
	if err != nil {
		return Report{}, err
	}
	m, err := gnn.NewModel(model, d.FeatureDims, 1)
	if err != nil {
		return Report{}, err
	}
	r, err := s.accel.Run(m, d.Profile())
	if err != nil {
		return Report{}, err
	}
	return reportOf(r), nil
}

// SimulateOn is Simulate on a named accelerator: "scale" (or "") selects
// the SCALE model this Simulator was configured with; any backend name
// internal/baseline knows ("awb-gcn", "gcnax", "regnn", "flowgnn", "i-gcn",
// "systolic", case-insensitive) selects that backend at the Simulator's MAC
// budget. Unknown names are typed input errors.
func (s *Simulator) SimulateOn(accel, model, dataset string) (Report, error) {
	if accel == "" || strings.EqualFold(accel, "scale") {
		return s.Simulate(model, dataset)
	}
	d, err := graph.ByName(dataset)
	if err != nil {
		return Report{}, err
	}
	m, err := gnn.NewModel(model, d.FeatureDims, 1)
	if err != nil {
		return Report{}, err
	}
	b, err := baseline.ByName(accel, s.accel.MACs())
	if err != nil {
		return Report{}, err
	}
	r, err := b.Run(m, d.Profile())
	if err != nil {
		return Report{}, err
	}
	return reportOf(r), nil
}

// Accelerators lists the names SimulateOn accepts: SCALE plus every
// backend in internal/baseline.
func Accelerators() []string {
	names := []string{"SCALE"}
	for _, b := range baseline.All(1024) {
		names = append(names, b.Name())
	}
	return append(names, "I-GCN")
}

// LayerTraceInfo summarizes one layer's execution trace: the chosen ring
// configuration, batch size, and how evenly the scheduling batches ran.
type LayerTraceInfo struct {
	Layer         int
	RingSize      int
	NumRings      int
	BatchSize     int
	NumBatches    int
	BatchEvenness float64 // mean/max batch makespan; 1 = perfectly even
}

// SimulateTraced is Simulate with per-layer execution traces.
func (s *Simulator) SimulateTraced(model, dataset string) (Report, []LayerTraceInfo, error) {
	d, err := graph.ByName(dataset)
	if err != nil {
		return Report{}, nil, err
	}
	m, err := gnn.NewModel(model, d.FeatureDims, 1)
	if err != nil {
		return Report{}, nil, err
	}
	r, trace, err := s.accel.RunTraced(m, d.Profile())
	if err != nil {
		return Report{}, nil, err
	}
	infos := make([]LayerTraceInfo, 0, len(trace.Layers))
	for _, lt := range trace.Layers {
		infos = append(infos, LayerTraceInfo{
			Layer:         lt.Layer,
			RingSize:      lt.RingSize,
			NumRings:      lt.NumRings,
			BatchSize:     lt.Batch,
			NumBatches:    len(lt.Batches),
			BatchEvenness: lt.BalanceAgg(),
		})
	}
	return reportOf(r), infos, nil
}

// SimulateGraph runs the named model with the given feature-length chain
// over a custom degree sequence (degrees[v] = in-degree of vertex v).
func (s *Simulator) SimulateGraph(model string, dims []int, name string, degrees []int32) (Report, error) {
	m, err := gnn.NewModel(model, dims, 1)
	if err != nil {
		return Report{}, err
	}
	r, err := s.accel.Run(m, graph.NewProfile(name, degrees))
	if err != nil {
		return Report{}, err
	}
	return reportOf(r), nil
}

// Compare runs the model/dataset pair on SCALE and on every baseline that
// supports the model, returning reports keyed by accelerator name.
func Compare(model, dataset string) (map[string]Report, error) {
	s := bench.NewSuite()
	cell, err := s.RunCell(model, dataset)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Report, len(cell))
	for name, r := range cell {
		out[name] = reportOf(r)
	}
	return out, nil
}

// Infer performs functional inference: it executes the model over an
// explicit edge list using the SCALE dataflow (scheduled reduce chains and
// per-vertex updates) and returns the final-layer vertex embeddings. Edges
// are directed src→dst aggregation edges; features is row-major |V|×dims[0].
//
// Infer builds the model from scratch on every call. Callers issuing
// repeated requests with the same (model, dims) should hold a Session
// instead — same results, without the per-call construction cost.
func (s *Simulator) Infer(model string, dims []int, numVertices int, edges [][2]int, features [][]float32) ([][]float32, error) {
	sess, err := s.NewSession(model, dims)
	if err != nil {
		return nil, err
	}
	return sess.Infer(numVertices, edges, features)
}

// Experiment regenerates one of the paper's tables or figures by id
// (table1, fig1a..fig1c, fig10, fig11, table3, fig12, fig13a, fig13b,
// fig14, fig15, fig16a, fig16b) and returns the rendered ASCII table.
func Experiment(id string) (string, error) {
	e, err := bench.ByID(id)
	if err != nil {
		return "", err
	}
	t, err := e.Run(bench.NewSuite())
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// ExperimentIDs lists the regenerable experiments in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
