package core

import (
	"fmt"
	"sync"

	"scale/internal/arch"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/mem"
	"scale/internal/sched"
)

// SCALE is the accelerator model of the paper's contribution. It implements
// arch.Accelerator with the task-level timing engine described in DESIGN.md:
// per-ring pipelined aggregation (forward reduce chain) and update (backward
// weight-stationary all-gather), double-buffered dispatch, §IV-B batch
// sizing, Eq. 3 ring sizing, and per-PE activity counters for utilization.
//
// A SCALE value is safe for concurrent use: Run never mutates the receiver —
// its configuration is copied at construction and all simulation state
// (schedules, batches, counters) is freshly allocated per call. The
// functional executor's recycled state lives in a sync.Pool, so concurrent
// Forward calls each check out their own state.
type SCALE struct {
	cfg Config
	// Perf is the §IV-B analytical scheduling model.
	Perf sched.PerfModel
	// fwdPool recycles fwdState values across Forward calls (see
	// functional.go); the zero value is ready to use.
	fwdPool sync.Pool
}

// New returns a SCALE model with the given configuration.
func New(cfg Config) (*SCALE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SCALE{cfg: cfg, Perf: sched.DefaultPerfModel()}, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *SCALE {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements arch.Accelerator.
func (s *SCALE) Name() string { return "SCALE" }

// MACs implements arch.Accelerator.
func (s *SCALE) MACs() int { return s.cfg.TotalMACs() }

// Supports implements arch.Accelerator: SCALE executes any message passing
// model whose aggregation is a commutative-associative reduction.
func (s *SCALE) Supports(m *gnn.Model) bool { return true }

// Run implements arch.Accelerator.
func (s *SCALE) Run(m *gnn.Model, p *graph.Profile) (*arch.Result, error) {
	if err := arch.CheckRunnable(s, m, p); err != nil {
		return nil, err
	}
	res := &arch.Result{Accelerator: s.Name(), Model: m.Name(), Dataset: p.Name}
	for li, layer := range m.Layers {
		lr, traffic, _, err := s.runLayerTraced(li, layer.Work(), p)
		if err != nil {
			return nil, err
		}
		res.Layers = append(res.Layers, lr)
		res.Traffic.Add(traffic)
	}
	s.chargeReconfiguration(res.Layers)
	res.Finalize()
	return res, nil
}

// chargeReconfiguration adds the inter-layer ring-reconfiguration cost —
// simple switch toggling, which §V claims is negligible; charging it
// explicitly (one cycle to quiesce plus one per segment boundary) makes the
// claim measurable rather than assumed.
func (s *SCALE) chargeReconfiguration(layers []arch.LayerResult) {
	for li := 1; li < len(layers); li++ {
		if layers[li].RingSize == layers[li-1].RingSize {
			continue
		}
		reconfig := int64(1 + s.cfg.NumPEs()/layers[li].RingSize)
		layers[li].Breakdown.ExposedComm += reconfig
		layers[li].Cycles += reconfig
	}
}

// batchStats carries one scheduling batch's per-ring workload extremes.
type batchStats struct {
	aggMax, updMax int64 // slowest ring's phase ops (balance denominator)
	aggSum, updSum int64 // total phase ops across rings
	fill           int64 // ring fill / drain overhead (exposed comm)
	compute        int64 // batch makespan (max ring time incl. fill)
}

// runLayerTraced executes one layer's timing model, returning the result,
// its memory traffic, and the per-batch trace.
func (s *SCALE) runLayerTraced(li int, w gnn.LayerWork, p *graph.Profile) (arch.LayerResult, mem.Traffic, LayerTrace, error) {
	cfg := s.cfg
	ringSize := cfg.RingSizeFor(w.WeightBytes, w.InDim, w.OutDim)
	nRings := cfg.NumRings(ringSize)
	numPEs := nRings * ringSize // PEs in use; a remainder < ringSize idles

	// Batch size: the §IV-B bound gives the minimum B that hides
	// scheduling. Balance imposes a second lower bound: each ring needs
	// enough edges per batch that the largest single vertex (power-law
	// hub) cannot dominate one ring's aggregation makespan.
	batch := cfg.BatchSize
	if batch == 0 {
		batch = 2 * s.Perf.MinBatch(p.AvgDegree(), numPEs, w.MsgDim, 4096)
		if davg := p.AvgDegree(); davg > 0 {
			need := int(2 * float64(p.MaxDegree()) * float64(nRings) / davg)
			if need > batch {
				batch = need
			}
		}
		batch = clamp(batch, defaultBatchSize, 16384)
		// Never schedule beyond the graph: t_ts scales with B, and a
		// batch larger than |V| only inflates the scheduler's table scan.
		if batch > p.NumVertices() {
			batch = p.NumVertices()
		}
	}

	var (
		traffic  mem.Traffic
		totalV   = p.NumVertices()
		schedCfg = sched.Config{NumTasks: numPEs, NumGroups: nRings, Policy: cfg.Policy}
	)
	// The schedule depends only on (degrees, batch, schedCfg): computed once
	// per profile and shared read-only across layers, accelerators, and
	// sweep workers (see schedmemo.go).
	ls, err := scheduleFor(p, batch, schedCfg)
	if err != nil {
		return arch.LayerResult{}, mem.Traffic{}, LayerTrace{}, fmt.Errorf("core: layer %d: %w", li, err)
	}
	stats := make([]batchStats, 0, len(ls.batches))
	for _, bs := range ls.batches {
		st := s.batchTiming(bs.groups, w, ringSize)
		stats = append(stats, st)

		// Traffic: prepared source features cross the GB→register
		// boundary once per edge-touch; vertex inputs and outputs once
		// per vertex. Intermediates (partial aggregations, circulating
		// feature vectors) live in registers — SCALE's reuse story.
		eb := bs.edges
		vb64 := bs.vertices
		fb := cfg.FeatureBytes
		traffic.GBReadBytes += int64(float64(eb*int64(w.MsgDim))*fb) + int64(float64(vb64*int64(w.InDim))*fb)
		traffic.GBWriteBytes += int64(float64(vb64*int64(w.OutDim)) * fb)
		aggOps := eb * (w.GateOpsPerEdge + w.ReduceOpsPerEdge)
		preOps := vb64 * (w.PreMACsPerVertex + w.DstMACsPerVertex)
		updOps := vb64 * w.UpdateMACsPerVertex
		traffic.LocalReadBytes += (aggOps + preOps + updOps) * 4
		traffic.LocalWriteBytes += (aggOps + preOps + updOps) * 4
		traffic.MACs += aggOps + preOps + updOps
	}

	// Scheduling overlap: the double-buffered task list hides t_ts behind
	// the previous batch's execution (§IV-A). The very first batch of the
	// run has no predecessor, but its schedule is computed while the
	// initial feature tile streams from HBM (layer 0) or during the
	// previous layer's tail (degrees are static, so later layers'
	// schedules are precomputable).
	tts := int64(s.Perf.SchedulingCycles(batch, numPEs))
	inBytes := int64(float64(p.NumVertices()*w.InDim) * cfg.FeatureBytes)
	var firstHide int64
	if li == 0 && len(stats) > 0 {
		firstHide = cfg.HBM.StreamCycles(inBytes / int64(len(stats)))
	} else {
		firstHide = tts // hidden behind the previous layer
	}
	var schedExposed, computeTotal, aggPhase, updPhase, fillTotal int64
	var aggActive, updActive int64
	for i, st := range stats {
		computeTotal += st.compute
		fillTotal += st.fill
		aggPhase += st.aggMax
		updPhase += st.updMax
		aggActive += st.aggSum
		updActive += st.updSum
		if cfg.DisableDoubleBuffering {
			// Ablation: every batch's scheduling serializes with its
			// execution.
			schedExposed += tts
			continue
		}
		if li > 0 {
			// Task lists depend only on degrees, so the controller
			// precomputes later layers' schedules during layer 0 and
			// replays them from the double-buffered task lists.
			continue
		}
		if i == 0 {
			if tts > firstHide {
				schedExposed += tts - firstHide
			}
		} else if hidden := stats[i-1].compute; tts > hidden {
			schedExposed += tts - hidden
		}
	}

	// Weight preload: each ring holds a full copy of the weight matrix
	// when it fits (duplication across rings, §VII-E) or its capacity's
	// worth otherwise; the partition shifts serially into the ring through
	// the 16 B/cycle local ports before the update phase can start
	// (§III-B.2) — the "initial data load time" cost of large rings.
	ringCapacity := int64(ringSize) * cfg.WeightBufBytes
	weightChunk := min(w.WeightBytes, ringCapacity)
	perPE := (weightChunk + int64(ringSize) - 1) / int64(ringSize)
	preload := ceilDiv(perPE, 16) * int64(ringSize)
	fillTotal += preload
	computeTotal += preload

	// DRAM: layer inputs stream in (from DRAM on the first layer, or when
	// the activation working set exceeds the GB), weights stream once, and
	// outputs stream out. Two refetch regimes exist, mirrored exactly in
	// the baseline models so the comparison stays fair:
	//   - weights larger than the global buffer force extra input passes
	//     (weight tiling re-streams the activations);
	//   - a forced-undersized ring (Fig. 14 left edge) refetches its
	//     missing weight portion from the GB/DRAM per batch.
	outBytes := int64(float64(totalV*w.OutDim) * cfg.FeatureBytes)
	var dramRead, dramWrite, gbRecircStall int64
	inputFromDRAM := li == 0 || !cfg.GB.Fits(inBytes)
	if inputFromDRAM {
		dramRead += inBytes
	}
	dramRead += w.WeightBytes
	if passes := weightPasses(w.WeightBytes, cfg.GB.CapacityBytes); passes > 1 && inputFromDRAM {
		// Oversized weights: the controller picks the cheaper refetch —
		// re-stream the activations per weight tile, or re-stream the
		// weights per vertex batch.
		activationRefetch := inBytes * (passes - 1)
		weightRefetch := w.WeightBytes * int64(len(stats)-1)
		dramRead += min(activationRefetch, weightRefetch)
	}
	if ringCapacity < w.WeightBytes && cfg.RingSize != 0 {
		// Forced-undersized ring (Fig. 14 left edge): the weights tile in
		// time and the aggregated features — which the fused dataflow
		// otherwise never materializes — must recirculate once per extra
		// weight tile, through the GB when a batch's worth fits and
		// through DRAM otherwise ("excessive off-chip memory access",
		// §V). Eq. 3's lower bound exists precisely to avoid this.
		tiles := ceilDiv(w.WeightBytes, ringCapacity)
		interBytes := int64(float64(totalV*w.MsgDim) * cfg.FeatureBytes)
		redo := interBytes * (tiles - 1)
		batchInter := int64(float64(batch*w.MsgDim) * cfg.FeatureBytes)
		if cfg.GB.Fits(batchInter * 2) {
			traffic.GBReadBytes += redo
			traffic.GBWriteBytes += interBytes
			if gbCycles := cfg.GB.ReadCycles(redo); gbCycles > computeTotal {
				gbRecircStall = gbCycles - computeTotal
			}
		} else {
			dramRead += redo
			dramWrite += interBytes
		}
	}
	if !cfg.GB.Fits(outBytes) {
		dramWrite += outBytes
	}
	traffic.DRAMReadBytes += dramRead
	traffic.DRAMWriteBytes += dramWrite
	memCycles := cfg.HBM.StreamCycles(dramRead + dramWrite)
	memStall := memCycles - computeTotal
	if memStall < 0 {
		memStall = 0
	}
	memStall += gbRecircStall

	// Utilization (performance-counter semantics, §VII-C): per phase, the
	// work actually executed over what the straggler ring's makespan
	// admits across all rings — exactly the balance mean/max metric.
	aggUtil := utilization(aggActive, aggPhase, int64(nRings))
	updUtil := utilization(updActive, updPhase, int64(nRings))

	// Proportional bottleneck attribution of the fused phases by op share.
	var agg, upd int64
	if t := aggActive + updActive; t > 0 {
		agg = computeTotal - fillTotal
		upd = int64(float64(agg) * float64(updActive) / float64(t))
		agg -= upd
	}
	lr := arch.LayerResult{
		Layer:    li,
		RingSize: ringSize,
		Breakdown: arch.Breakdown{
			Agg:         agg,
			Update:      upd,
			ExposedComm: fillTotal,
			Sched:       schedExposed,
			MemStall:    memStall,
		},
		AggUtil:    aggUtil,
		UpdateUtil: updUtil,
	}
	lr.Cycles = lr.Breakdown.Total()

	lt := LayerTrace{Layer: li, RingSize: ringSize, NumRings: nRings, Batch: batch}
	for _, st := range stats {
		lt.Batches = append(lt.Batches, BatchTrace{
			Compute: st.compute, AggOpsMax: st.aggMax, UpdOpsMax: st.updMax, Fill: st.fill,
		})
	}
	return lr, traffic, lt, nil
}

// batchTiming computes one batch's per-ring cycle usage.
//
// The aggregation stream covers message formation — per-edge gate/attention
// ops and the per-vertex source/destination transforms that feed the reduce
// chains — plus the reductions themselves; the update stream is the backward
// weight-stationary pass. Both MACs of a PE are drawn from one pool: the
// aggregation engine's MAC is configurable (§III-B: configurable adder,
// multiplier, and scalar buffer) and picks up update-side vector work when
// its reduce chains drain, which is what fuses the two operators onto one
// fabric. A ring's makespan is therefore its total ops over 2·S MACs, plus
// pipeline fills: one register-array preload per task wave and the S−1 hops
// of the last vertex's update traversal (§III-B.2).
func (s *SCALE) batchTiming(groups []groupLoad, w gnn.LayerWork, ringSize int) batchStats {
	var st batchStats
	S := int64(ringSize)
	// Feature parallelism: the feature dimension is sliced across rings,
	// so every ring sees the full batch's edges over 1/nRings of the
	// elements — perfectly balanced regardless of the schedule — and the
	// aggregated slices must be exchanged across rings before the update
	// traversal (one extra hop per slice, charged as fill below).
	featureParallel := s.cfg.FeatureParallel && len(groups) > 1
	var totalE, totalV int64
	if featureParallel {
		for _, g := range groups {
			totalE += g.edges
			totalV += g.vertices
		}
	}
	nGroups := int64(len(groups))
	for _, g := range groups {
		e := g.edges
		v := g.vertices
		if featureParallel {
			e = (totalE + nGroups - 1) / nGroups
			v = (totalV + nGroups - 1) / nGroups
		}
		aggOps := e*(w.GateOpsPerEdge+w.ReduceOpsPerEdge) + v*(w.PreMACsPerVertex+w.DstMACsPerVertex)
		updOps := v * w.UpdateMACsPerVertex
		fill := int64(g.tasks)/S + S // task-wave preloads + update drain
		if featureParallel {
			// Cross-ring exchange: each aggregated slice hops to the
			// ring holding its update partition.
			fill += ceilDiv(v*int64(w.MsgDim), 512/4)
		}
		var ringTime int64
		if s.cfg.DisableOperatorFusion {
			// Ablation: each engine only runs its own phase; the ring
			// finishes when its slower engine does.
			ringTime = max(ceilDiv(aggOps, S), ceilDiv(updOps, S)) + fill
		} else {
			ringTime = ceilDiv(aggOps+updOps, 2*S) + fill
		}
		st.aggSum += aggOps
		st.updSum += updOps
		if aggOps > st.aggMax {
			st.aggMax = aggOps
		}
		if updOps > st.updMax {
			st.updMax = updOps
		}
		if ringTime > st.compute {
			st.compute = ringTime
		}
		if fill > st.fill {
			st.fill = fill
		}
	}
	return st
}

// weightPasses returns how many passes over the streamed activations a
// layer's weight tiling needs given an on-chip staging capacity.
func weightPasses(weightBytes, capacity int64) int64 {
	if capacity <= 0 || weightBytes <= capacity {
		return 1
	}
	return (weightBytes + capacity - 1) / capacity
}

func utilization(active, phaseMakespan, units int64) float64 {
	if phaseMakespan <= 0 || units <= 0 {
		return 1
	}
	u := float64(active) / (float64(phaseMakespan) * float64(units))
	if u > 1 {
		u = 1
	}
	return u
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
