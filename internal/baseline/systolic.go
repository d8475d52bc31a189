package baseline

import (
	"scale/internal/arch"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/mem"
)

// Systolic models a SCALE-Sim-style systolic-array GEMM accelerator
// (Samajdar et al.): a rows×cols PE grid running an output-stationary
// dataflow, with SRAM double-buffering fed by the shared HBM model. It is
// the package's sixth backend and the comparison's dense-dataflow reference
// point: update-phase GEMMs map onto the array at near-peak efficiency,
// while sparse aggregation — which the array has no gather hardware for —
// is bounded by global-buffer gather bandwidth and uses only one PE column
// of compute. Dense-GEMM-heavy models (SAGE-Pool's MLPs) therefore favor
// it; edge-dominated workloads do not.
//
// Cycle model (all closed-form; the conform harness pins these formulas):
//
//   - GEMM M×K·K×N tiles into ceil(M/rows)·ceil(N/cols) output tiles.
//     Each tile streams K accumulation beats plus rows+cols-2 skew cycles
//     of pipeline fill/drain (output-stationary: operands enter staggered
//     along both array edges). Skew cycles are reported as ExposedComm —
//     they are array-edge data movement, not MAC work.
//   - Aggregation is gather-bound: max(gb.ReadCycles(4·|E|·msgDim),
//     ceil(aggOps/cols)). The array reduces on one column of PEs; the
//     other columns idle (no sparse routing fabric).
//   - Phases serialize (tAgg + tUpd): the output-stationary array must
//     finish accumulating aggregation results before streaming them back
//     in as GEMM activations.
//   - Double-buffered SRAM hides DRAM streaming behind compute except the
//     leading buffer fill: memStall = max(memCycles - compute, burst
//     latency when any DRAM traffic exists, 0).
//
// Like every backend in this package, a Systolic is a value type whose Run
// allocates all working state per call, so a configured instance is safe
// for concurrent use (the arch.Accelerator contract).
type Systolic struct {
	rows, cols int
	gb         mem.GlobalBuffer
	hbm        mem.HBM
}

// NewSystolic builds the systolic backend for a MAC budget. The geometry is
// the squarest power-of-two array fitting the budget: 512→16×32,
// 1024→32×32, 2048→32×64, 4096→64×64. MACs() reports rows·cols, which
// equals the budget for power-of-two budgets.
func NewSystolic(macs int) *Systolic {
	if macs < 1 {
		macs = 1
	}
	k := 0
	for 1<<(k+1) <= macs {
		k++
	}
	rows := 1 << (k / 2)
	cols := (1 << k) / rows
	return &Systolic{rows: rows, cols: cols, gb: mem.DefaultGlobalBuffer(), hbm: mem.DefaultHBM()}
}

// Name implements arch.Accelerator.
func (s *Systolic) Name() string { return "Systolic" }

// MACs implements arch.Accelerator.
func (s *Systolic) MACs() int { return s.rows * s.cols }

// Supports implements arch.Accelerator. The array executes every model:
// message passing degrades to the gather-bound aggregation path rather
// than being unsupported (GEMM-lowerable or not, the reduction is the
// same stream of accumulates).
func (s *Systolic) Supports(m *gnn.Model) bool { return true }

// WithMemory implements Backend (the §VII-B scalability study provisions
// bandwidth proportionally to compute).
func (s *Systolic) WithMemory(gb mem.GlobalBuffer, hbm mem.HBM) Backend {
	s.gb = gb
	s.hbm = hbm
	return s
}

// gemmCycles returns the output-stationary cycle count and the skew
// (fill/drain) share for an M×K·K×N GEMM on the array.
func (s *Systolic) gemmCycles(m, k, n int64) (cycles, skew int64) {
	if m <= 0 || n <= 0 {
		return 0, 0
	}
	if k < 1 {
		k = 1
	}
	tiles := ceilDiv(m, int64(s.rows)) * ceilDiv(n, int64(s.cols))
	skew = tiles * int64(s.rows+s.cols-2)
	return tiles*k + skew, skew
}

// Run implements arch.Accelerator.
func (s *Systolic) Run(m *gnn.Model, p *graph.Profile) (*arch.Result, error) {
	if err := arch.CheckRunnable(s, m, p); err != nil {
		return nil, err
	}
	res := &arch.Result{Accelerator: s.Name(), Model: m.Name(), Dataset: p.Name}
	for li, layer := range m.Layers {
		lr, traffic := s.runLayer(li, layer, p)
		res.Layers = append(res.Layers, lr)
		res.Traffic.Add(traffic)
	}
	res.Finalize()
	return res, nil
}

func (s *Systolic) runLayer(li int, layer gnn.Layer, p *graph.Profile) (arch.LayerResult, mem.Traffic) {
	w := layer.Work()
	v := int64(p.NumVertices())
	e := p.NumEdges()
	msgDim := int64(w.MsgDim)
	if msgDim < 1 {
		msgDim = 1
	}
	inDim := int64(w.InDim)
	if inDim < 1 {
		inDim = 1
	}
	macs := int64(s.rows * s.cols)

	// Aggregation: per-edge gather of the source feature vector from the
	// banked SRAM, reduced on one PE column.
	aggOps := e * (w.GateOpsPerEdge + w.ReduceOpsPerEdge)
	gatherBytes := 4 * e * msgDim
	tAgg := max(s.gb.ReadCycles(gatherBytes), ceilDiv(aggOps, int64(s.cols)))

	// Update: dense GEMMs. Per-vertex op counts are folded into GEMM shapes
	// with M=|V| and the layer's natural reduction dimension as K; N is
	// whatever column count realizes the declared MACs (MLP updates become
	// one tall GEMM — the array does not care about layer boundaries, only
	// total beats).
	var tUpd, skew, gemmStreamBytes int64
	addGEMM := func(mm, k, n int64) {
		c, sk := s.gemmCycles(mm, k, n)
		tUpd += c
		skew += sk
		gemmStreamBytes += 4 * ceilDiv(mm, int64(s.rows)) * ceilDiv(n, int64(s.cols)) * k * int64(s.rows+s.cols)
	}
	preOps := w.PreMACsPerVertex + w.DstMACsPerVertex
	if preOps > 0 {
		addGEMM(v, inDim, ceilDiv(preOps, inDim))
	}
	if w.UpdateMACsPerVertex > 0 {
		addGEMM(v, msgDim, ceilDiv(w.UpdateMACsPerVertex, msgDim))
	}
	updOps := v * (preOps + w.UpdateMACsPerVertex)
	compute := tAgg + tUpd

	// Memory traffic: double-buffered SRAM streaming against the shared
	// HBM model. No inter-phase fusion — aggregated features that outgrow
	// the buffer round-trip off chip in full.
	var traffic mem.Traffic
	inBytes := 4 * v * int64(w.InDim)
	outBytes := 4 * v * int64(w.OutDim)
	interBytes := 4 * v * msgDim
	var dramRead, dramWrite int64
	if li == 0 || !s.gb.Fits(inBytes) {
		dramRead += inBytes
	}
	dramRead += w.WeightBytes
	if !s.gb.Fits(outBytes) {
		dramWrite += outBytes
	}
	if !s.gb.Fits(interBytes) {
		dramWrite += interBytes
		dramRead += interBytes
	}
	traffic.DRAMReadBytes = dramRead
	traffic.DRAMWriteBytes = dramWrite
	traffic.GBReadBytes = gatherBytes + inBytes + gemmStreamBytes
	traffic.GBWriteBytes = interBytes + outBytes
	ops := aggOps + updOps
	// Output-stationary partial sums circulate in PE registers: high local
	// reuse (one read + one write per MAC, halved by forwarding along the
	// column).
	traffic.LocalReadBytes = ops * 2
	traffic.LocalWriteBytes = ops * 2
	traffic.MACs = ops

	memCycles := s.hbm.StreamCycles(dramRead + dramWrite)
	memStall := memCycles - compute
	if memStall < 0 {
		memStall = 0
	}
	if dramRead+dramWrite > 0 && memStall < s.hbm.BurstLatency {
		memStall = s.hbm.BurstLatency // leading buffer fill is exposed
	}

	lr := arch.LayerResult{
		Layer: li,
		Breakdown: arch.Breakdown{
			Agg:         tAgg,
			Update:      tUpd - skew,
			ExposedComm: skew,
			MemStall:    memStall,
		},
	}
	if tAgg > 0 {
		lr.AggUtil = float64(aggOps) / (float64(macs) * float64(tAgg))
	}
	if tUpd > 0 {
		lr.UpdateUtil = float64(updOps) / (float64(macs) * float64(tUpd))
	}
	lr.Cycles = lr.Breakdown.Total()
	return lr, traffic
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		b = 1
	}
	return (a + b - 1) / b
}
