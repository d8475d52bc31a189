// Package core implements the SCALE accelerator model: the flexible
// systolic-array-like PE array with segmented rings (§III), the degree and
// vertex-aware runtime scheduling (§IV, via internal/sched), the Eq. 3 ring
// sizing and per-layer reconfiguration (§V), and the task-level timing
// engine whose per-task cycle laws are validated against the register-level
// micro simulator in core/micro.
package core

import (
	"fmt"

	"scale/internal/fault"
	"scale/internal/mem"
	"scale/internal/sched"
)

// Config is a SCALE hardware configuration. The §VII-A evaluation point is
// DefaultConfig: a 32×16 PE array (512 PEs, 1024 MACs), 4 MB global buffer,
// 6 KB local buffers per PE (4 KB update, 2 KB aggregation), 1 GHz.
type Config struct {
	// Rows and Cols give the PE array geometry. Scaling prefers rows
	// (§VII-B): columns grow the shift-register arrays.
	Rows, Cols int
	// MACsPerPE counts MAC units per PE: one in the aggregation engine,
	// one in the update engine (2 in the evaluated design).
	MACsPerPE int
	// RegArrayDepth is the per-PE shift-register array depth (double
	// buffered, §III-B). It bounds the tasks resident per PE.
	RegArrayDepth int
	// UpdateBufBytes is the update-engine local buffer (weights+outputs).
	UpdateBufBytes int64
	// WeightBufBytes is the weight-resident portion of the update buffer,
	// the B_weight of Eq. 3.
	WeightBufBytes int64
	// AggBufBytes is the aggregation-engine local buffer.
	AggBufBytes int64
	// GB and HBM model the shared memory system.
	GB  mem.GlobalBuffer
	HBM mem.HBM
	// Policy selects the scheduling policy (Algorithm 1 by default; the
	// ablation of Fig. 13b swaps this).
	Policy sched.Policy
	// BatchSize is the task-scheduling batch B; 0 selects it with the
	// §IV-B analytical model.
	BatchSize int
	// RingSize forces a ring size for every layer; 0 applies Eq. 3 per
	// layer (the Fig. 14 sweep sets this explicitly).
	RingSize int
	// FreqGHz is the clock (1.0 in the paper).
	FreqGHz float64
	// FeatureBytes is the storage width of one feature element (4 =
	// float32, the §VI datatype). Degree-based quantization
	// (internal/quant) lowers the effective average; weights always stay
	// full precision.
	FeatureBytes float64
	// DisableOperatorFusion is an ablation knob: the aggregation and
	// update engines stop sharing work (no operator parallelism across
	// the PE's two MACs), reverting to the disjoint-engine organization
	// of prior architectures.
	DisableOperatorFusion bool
	// DisableDoubleBuffering is an ablation knob: the task dispatcher's
	// task lists are single-buffered, exposing every batch's scheduling
	// latency instead of hiding it behind execution (§IV-A).
	DisableDoubleBuffering bool
	// FeatureParallel switches the aggregation mapping from edge
	// parallelism to feature parallelism (§III-B.1: "the aggregation
	// phase either leverages the edge or feature parallelism"): every
	// ring processes the whole batch's reduce chains over a slice of the
	// feature dimension. Balance becomes perfect by construction, at the
	// cost of a cross-ring exchange to reassemble aggregated vectors
	// before the update traversal.
	FeatureParallel bool
}

// defaultBatchSize is the scheduling batch B used when Config.BatchSize is 0
// and no analytical model (§IV-B) overrides it — shared by the functional
// executor and the timing engine's clamp floor.
const defaultBatchSize = 1024

// EffectiveBatchSize resolves the task-scheduling batch B: the configured
// BatchSize, or defaultBatchSize when unset.
func (c Config) EffectiveBatchSize() int {
	if c.BatchSize == 0 {
		return defaultBatchSize
	}
	return c.BatchSize
}

// DefaultConfig returns the §VII-A evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Rows: 32, Cols: 16,
		MACsPerPE:      2,
		RegArrayDepth:  16,
		UpdateBufBytes: 4 << 10,
		WeightBufBytes: 2 << 10,
		AggBufBytes:    2 << 10,
		GB:             mem.DefaultGlobalBuffer(),
		HBM:            mem.DefaultHBM(),
		Policy:         sched.DegreeVertexAware,
		FreqGHz:        1.0,
		FeatureBytes:   4,
	}
}

// ConfigForMACs returns the §VII-B scalability-study geometry for a MAC
// budget: 512→16×16, 1024→32×16, 2048→32×32, 4096→64×32 (2 MACs per PE).
func ConfigForMACs(macs int) (Config, error) {
	c := DefaultConfig()
	switch macs {
	case 512:
		c.Rows, c.Cols = 16, 16
	case 1024:
		c.Rows, c.Cols = 32, 16
	case 2048:
		c.Rows, c.Cols = 32, 32
	case 4096:
		c.Rows, c.Cols = 64, 32
	default:
		return Config{}, fmt.Errorf("core: no geometry for %d MACs (have 512/1024/2048/4096): %w", macs, fault.ErrBadConfig)
	}
	return c, nil
}

// NumPEs returns the PE count.
func (c Config) NumPEs() int { return c.Rows * c.Cols }

// TotalMACs returns the MAC count (the §VI comparison resource).
func (c Config) TotalMACs() int { return c.NumPEs() * c.MACsPerPE }

// LocalBufBytes returns the per-PE local storage (6 KB in the paper).
func (c Config) LocalBufBytes() int64 { return c.UpdateBufBytes + c.AggBufBytes }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("core: bad array geometry %dx%d: %w", c.Rows, c.Cols, fault.ErrBadConfig)
	}
	if c.MACsPerPE < 2 {
		return fmt.Errorf("core: need >=2 MACs per PE (agg + update), got %d: %w", c.MACsPerPE, fault.ErrBadConfig)
	}
	if c.WeightBufBytes < 4 || c.WeightBufBytes > c.UpdateBufBytes {
		return fmt.Errorf("core: weight buffer %d outside (4, update buffer %d]: %w", c.WeightBufBytes, c.UpdateBufBytes, fault.ErrBadConfig)
	}
	if c.RegArrayDepth < 1 {
		return fmt.Errorf("core: register array depth %d: %w", c.RegArrayDepth, fault.ErrBadConfig)
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("core: frequency %f: %w", c.FreqGHz, fault.ErrBadConfig)
	}
	if c.FeatureBytes < 0.5 || c.FeatureBytes > 8 {
		return fmt.Errorf("core: feature bytes %f outside [0.5, 8]: %w", c.FeatureBytes, fault.ErrBadConfig)
	}
	if c.RingSize != 0 && (c.RingSize < 2 || c.RingSize > c.NumPEs()) {
		return fmt.Errorf("core: ring size %d outside [2, %d]: %w", c.RingSize, c.NumPEs(), fault.ErrBadConfig)
	}
	return nil
}

// RingSizeFor applies Eq. 3 to pick the ring size for a layer whose update
// weights occupy weightBytes across a weightRows×weightCols matrix:
//
//	S_ring ∈ [ ⌈W / B_weight⌉ , R_weight·C_weight ]
//
// The lower bound keeps the whole weight matrix resident across the ring
// (avoiding off-chip refetch); the upper bound stops assigning PEs that
// would hold no weights. Within the range we take the smallest power of two
// at or above the lower bound — the segmented wrap-up links halve rings, so
// power-of-two sizes are the configurable points. Small layers thus get many
// small rings with duplicated weights (§VII-E) and large layers get rings
// just big enough to hold their matrix (Cora layer 1: 1433×16 floats over
// 2 KB weight buffers ⇒ lower bound 45 ⇒ ring size 64, the Fig. 14 optimum).
func (c Config) RingSizeFor(weightBytes int64, weightRows, weightCols int) int {
	if c.RingSize != 0 {
		return clamp(c.RingSize, 2, c.NumPEs())
	}
	lower := int((weightBytes + c.WeightBufBytes - 1) / c.WeightBufBytes)
	upper := weightRows * weightCols
	if upper < 2 {
		upper = 2
	}
	s := nextPow2(lower)
	if s < 2 {
		s = 2
	}
	for s > upper && s > 2 {
		s /= 2
	}
	return clamp(s, 2, c.NumPEs())
}

// NumRings returns how many rings a layer configuration yields.
func (c Config) NumRings(ringSize int) int {
	n := c.NumPEs() / ringSize
	if n < 1 {
		n = 1
	}
	return n
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
