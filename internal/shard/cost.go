package shard

import (
	"fmt"

	"scale/internal/fault"
	"scale/internal/mem"
	"scale/internal/noc"
)

// CommEstimate is the NoC/memory-model cost of running one sharded forward
// pass: the halo exchange between every pair of layers, costed with the same
// internal/noc hop model and internal/mem bandwidth model the simulator uses
// for on-chip aggregation. The exchange is a layer barrier — no shard can
// start layer L+1 until every halo row from layer L has arrived — so all of
// its cycles are exposed (nothing overlaps compute), which is exactly the
// exposed-communication framing of Fig. 1(b) lifted from the ring of compute
// engines to the ring (or other topology) of shard workers.
type CommEstimate struct {
	// Shards is the effective shard count K.
	Shards int `json:"shards"`
	// Topology names the inter-shard interconnect the estimate assumed.
	Topology string `json:"topology"`
	// EdgeCut is the fraction of edges crossing shards (from the Plan).
	EdgeCut float64 `json:"edge_cut"`
	// Balance is the largest shard's owned share over the mean (≥ 1).
	Balance float64 `json:"balance"`
	// HaloVertices is the total halo copies refreshed before each layer.
	HaloVertices int `json:"halo_vertices"`
	// HaloBytes is the total bytes moved across shards over the whole pass:
	// Σ over exchanges of HaloVertices × dims[layer] × elemBytes.
	HaloBytes int64 `json:"halo_bytes"`
	// ExchangeCycles is the predicted cycle cost of all halo exchanges:
	// per exchange, each shard streams its share of the halo bytes
	// (mem.HBM model) and every transfer pays the topology's hop latency.
	ExchangeCycles int64 `json:"exchange_cycles"`
	// ComputeCycles is the predicted per-shard compute time of the sharded
	// pass: the single-device compute estimate divided by K, inflated by
	// Balance (the slowest shard gates every barrier).
	ComputeCycles int64 `json:"compute_cycles"`
	// ExposedFraction is ExchangeCycles over the sharded total — the share
	// of the pass spent waiting on cross-shard communication.
	ExposedFraction float64 `json:"exposed_fraction"`
	// PredictedSpeedup is the model's throughput ratio versus one device:
	// T₁ / (T₁·Balance/K + ExchangeCycles). Always ≤ K; approaches K only
	// when the cut (and thus the exchange) is small.
	PredictedSpeedup float64 `json:"predicted_speedup"`
}

// EstimateComm costs plan's halo exchange for a model with the given
// feature-length chain, element size, and inter-shard topology, against a
// single-device compute estimate of computeCycles (e.g. scale.Report's
// predicted cycles for the unsharded pass). dims must hold at least two
// entries (one layer); elemBytes is the wire size of one feature element,
// 4 in both tiers because SCSH frames carry halo rows as float32.
//
// The model: layers l = 0..L-1 run as compute barriers. Before every layer
// except the first, each halo copy's row must move from its owner's shard to
// the reader's shard — HaloVertices rows of dims[l] elements. Each shard
// streams its 1/K share of those bytes over its link at HBM-class bandwidth
// (the workers are memory-bandwidth-bound on feature rows just like the
// chip), and every transfer pays the topology's hop count; with K shards the
// exchange is gated by the slowest shard, so the per-exchange cost is
// StreamCycles(bytes/K) × Hops. The first layer's inputs arrive with the
// load, not an exchange, so L layers cost L−1 exchanges.
func EstimateComm(plan *Plan, dims []int, elemBytes int, topo noc.Kind, computeCycles int64) (*CommEstimate, error) {
	if plan == nil || plan.K <= 0 {
		return nil, fmt.Errorf("shard: estimate needs a partition plan: %w", fault.ErrBadConfig)
	}
	if len(dims) < 2 {
		return nil, fmt.Errorf("shard: estimate needs a dims chain of ≥2 entries, got %d: %w", len(dims), fault.ErrBadConfig)
	}
	if elemBytes <= 0 {
		return nil, fmt.Errorf("shard: element size %d must be positive: %w", elemBytes, fault.ErrBadConfig)
	}
	nw, err := noc.New(topo, plan.K)
	if err != nil {
		return nil, err
	}
	est := &CommEstimate{
		Shards:       plan.K,
		Topology:     topo.String(),
		EdgeCut:      plan.EdgeCut,
		Balance:      plan.Balance,
		HaloVertices: plan.HaloVertices,
	}
	hbm := mem.DefaultHBM()
	// One exchange before each layer after the first: layer l consumes rows
	// of width dims[l], so the exchange feeding it moves halo × dims[l]
	// elements (l = 1..L-1; dims has L+1 entries, the last is the output
	// width, which is never exchanged).
	for l := 1; l < len(dims)-1; l++ {
		bytes := int64(plan.HaloVertices) * int64(dims[l]) * int64(elemBytes)
		est.HaloBytes += bytes
		perShard := (bytes + int64(plan.K) - 1) / int64(plan.K)
		est.ExchangeCycles += hbm.StreamCycles(perShard) * int64(nw.Hops())
	}
	// The slowest shard gates every barrier: per-shard compute is the even
	// split inflated by the ownership imbalance.
	est.ComputeCycles = int64(float64(computeCycles) * plan.Balance / float64(plan.K))
	total := est.ComputeCycles + est.ExchangeCycles
	if total > 0 {
		est.ExposedFraction = float64(est.ExchangeCycles) / float64(total)
	}
	if computeCycles > 0 && total > 0 {
		est.PredictedSpeedup = float64(computeCycles) / float64(total)
	}
	return est, nil
}
