package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// configJSON is the on-disk form of a Config: defaults apply to every field
// the file omits, so a file containing only {"rows": 64, "cols": 32} is a
// complete configuration.
type configJSON struct {
	Rows                   *int     `json:"rows"`
	Cols                   *int     `json:"cols"`
	MACsPerPE              *int     `json:"macs_per_pe"`
	RegArrayDepth          *int     `json:"reg_array_depth"`
	UpdateBufBytes         *int64   `json:"update_buf_bytes"`
	WeightBufBytes         *int64   `json:"weight_buf_bytes"`
	AggBufBytes            *int64   `json:"agg_buf_bytes"`
	GBBytes                *int64   `json:"global_buffer_bytes"`
	HBMBytesPerCycle       *float64 `json:"hbm_bytes_per_cycle"`
	RingSize               *int     `json:"ring_size"`
	BatchSize              *int     `json:"batch_size"`
	FreqGHz                *float64 `json:"freq_ghz"`
	DisableOperatorFusion  *bool    `json:"disable_operator_fusion"`
	DisableDoubleBuffering *bool    `json:"disable_double_buffering"`
	FeatureParallel        *bool    `json:"feature_parallel"`
	FeatureBytes           *float64 `json:"feature_bytes"`
}

// ConfigFromJSON decodes a configuration overlaying DefaultConfig, then
// validates it. Unknown fields are rejected to catch typos.
func ConfigFromJSON(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j configJSON
	if err := dec.Decode(&j); err != nil {
		return Config{}, fmt.Errorf("core: decoding config: %w", err)
	}
	cfg := DefaultConfig()
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setI64 := func(dst *int64, src *int64) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&cfg.Rows, j.Rows)
	setInt(&cfg.Cols, j.Cols)
	setInt(&cfg.MACsPerPE, j.MACsPerPE)
	setInt(&cfg.RegArrayDepth, j.RegArrayDepth)
	setI64(&cfg.UpdateBufBytes, j.UpdateBufBytes)
	setI64(&cfg.WeightBufBytes, j.WeightBufBytes)
	setI64(&cfg.AggBufBytes, j.AggBufBytes)
	setI64(&cfg.GB.CapacityBytes, j.GBBytes)
	if j.HBMBytesPerCycle != nil {
		cfg.HBM.BytesPerCycle = *j.HBMBytesPerCycle
	}
	setInt(&cfg.RingSize, j.RingSize)
	setInt(&cfg.BatchSize, j.BatchSize)
	if j.FreqGHz != nil {
		cfg.FreqGHz = *j.FreqGHz
	}
	if j.DisableOperatorFusion != nil {
		cfg.DisableOperatorFusion = *j.DisableOperatorFusion
	}
	if j.DisableDoubleBuffering != nil {
		cfg.DisableDoubleBuffering = *j.DisableDoubleBuffering
	}
	if j.FeatureParallel != nil {
		cfg.FeatureParallel = *j.FeatureParallel
	}
	if j.FeatureBytes != nil {
		cfg.FeatureBytes = *j.FeatureBytes
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
