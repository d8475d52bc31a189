// Package arch defines the common vocabulary shared by the SCALE model and
// the four baseline accelerator models: the Accelerator interface, per-layer
// and per-run results, and the latency breakdown categories of Fig. 11.
// Keeping these types in one place is what makes the §VI comparison fair:
// every accelerator consumes the same gnn.LayerWork numbers, the same graph
// profiles, and reports through the same Result shape.
package arch

import (
	"fmt"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/mem"
)

// Breakdown decomposes a latency into the Fig. 11 categories. Cycles are
// phase-exclusive: Total() is the end-to-end latency.
type Breakdown struct {
	// Agg is time spent bottlenecked on aggregation-phase compute.
	Agg int64
	// Update is time spent bottlenecked on update-phase compute.
	Update int64
	// ExposedComm is communication latency not hidden behind compute
	// (§II-B): inter-engine transfers, network traversals, ring fills.
	ExposedComm int64
	// Sched is task-scheduling latency not hidden behind execution.
	Sched int64
	// MemStall is time stalled on DRAM / global-buffer bandwidth.
	MemStall int64
}

// Total sums all categories.
func (b Breakdown) Total() int64 {
	return b.Agg + b.Update + b.ExposedComm + b.Sched + b.MemStall
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Agg += o.Agg
	b.Update += o.Update
	b.ExposedComm += o.ExposedComm
	b.Sched += o.Sched
	b.MemStall += o.MemStall
}

// LayerResult reports one layer's execution.
type LayerResult struct {
	Layer     int
	Cycles    int64
	Breakdown Breakdown
	// AggUtil / UpdateUtil are the mean PE utilizations of the two
	// engines during their phases (Fig. 13 metric).
	AggUtil    float64
	UpdateUtil float64
	// RingSize is the ring configuration chosen for this layer (SCALE
	// only; zero for baselines).
	RingSize int
}

// Result reports one full-model execution on one accelerator.
type Result struct {
	Accelerator string
	Model       string
	Dataset     string
	Cycles      int64
	Layers      []LayerResult
	Breakdown   Breakdown
	Traffic     mem.Traffic
	AggUtil     float64
	UpdateUtil  float64
}

// Finalize derives run totals from the per-layer results: cycle sums and
// cycle-weighted utilization means.
func (r *Result) Finalize() {
	r.Cycles = 0
	r.Breakdown = Breakdown{}
	var aggW, updW, aggSum, updSum float64
	for _, l := range r.Layers {
		r.Cycles += l.Cycles
		r.Breakdown.Add(l.Breakdown)
		wa := float64(l.Breakdown.Agg + 1)
		wu := float64(l.Breakdown.Update + 1)
		aggSum += l.AggUtil * wa
		aggW += wa
		updSum += l.UpdateUtil * wu
		updW += wu
	}
	if aggW > 0 {
		r.AggUtil = aggSum / aggW
	}
	if updW > 0 {
		r.UpdateUtil = updSum / updW
	}
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("Result(%s %s/%s: %d cycles, util agg=%.1f%% upd=%.1f%%)",
		r.Accelerator, r.Model, r.Dataset, r.Cycles, 100*r.AggUtil, 100*r.UpdateUtil)
}

// Accelerator is a timing+traffic model of one architecture.
//
// Implementations must be safe for concurrent use: Run may be called from
// many goroutines at once (the bench sweep engine fans the evaluation matrix
// across a worker pool), so a Run must not mutate receiver state — working
// state belongs in fresh per-call allocations, and any randomness must come
// from a per-call seeded source, never a shared one. Both in-tree
// implementations (core.SCALE and baseline.Baseline) follow this contract.
type Accelerator interface {
	// Name identifies the accelerator ("SCALE", "AWB-GCN", ...).
	Name() string
	// MACs returns the number of MAC units (the §VI equalized resource).
	MACs() int
	// Supports reports whether the architecture can execute the model
	// (AWB-GCN and GCNAX only handle SpMM/GEMM-representable models).
	Supports(m *gnn.Model) bool
	// Run simulates model m over graph profile p.
	Run(m *gnn.Model, p *graph.Profile) (*Result, error)
}

// Speedup returns base.Cycles / x.Cycles — how much faster x is than base.
func Speedup(base, x *Result) float64 {
	if x.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(x.Cycles)
}

// CheckRunnable validates common Run preconditions. Failures wrap the fault
// sentinels (the backend conformance contract requires typed input errors,
// never panics, from every accelerator's public Run edge): an empty model is
// a shape error, an empty profile a graph error, an unsupported model a
// configuration error.
func CheckRunnable(a Accelerator, m *gnn.Model, p *graph.Profile) error {
	if m == nil || len(m.Layers) == 0 {
		return fmt.Errorf("arch: %s: empty model: %w", a.Name(), fault.ErrBadShape)
	}
	if p == nil || p.NumVertices() == 0 {
		return fmt.Errorf("arch: %s: empty graph profile: %w", a.Name(), fault.ErrBadGraph)
	}
	if !a.Supports(m) {
		return fmt.Errorf("arch: %s does not support model %s: %w", a.Name(), m.Name(), fault.ErrBadConfig)
	}
	return nil
}
