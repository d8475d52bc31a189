package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 64, 32
	cfg.RingSize = 16
	cfg.DisableDoubleBuffering = true
	cfg.FeatureBytes = 2.5
	var b strings.Builder
	if err := ConfigToJSON(&b, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ConfigFromJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, b.String())
	}
	if got != cfg {
		t.Fatalf("round trip changed the config:\nwant %+v\ngot  %+v", cfg, got)
	}
}

// FuzzConfigJSON: parse → validate → re-marshal → re-parse must be the
// identity on every accepted input, and the parser must never panic.
func FuzzConfigJSON(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"rows": 64, "cols": 32, "ring_size": 16}`)
	f.Add(`{"global_buffer_bytes": 8388608, "hbm_bytes_per_cycle": 512}`)
	f.Add(`{"freq_ghz": 1.5, "feature_bytes": 2.5, "feature_parallel": true}`)
	f.Add(`{"rows": -1}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, input string) {
		cfg, err := ConfigFromJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails validation: %v", err)
		}
		var b strings.Builder
		if err := ConfigToJSON(&b, cfg); err != nil {
			t.Fatalf("re-marshal failed for valid config: %v", err)
		}
		again, err := ConfigFromJSON(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, b.String())
		}
		if again != cfg {
			t.Fatalf("round trip not the identity:\nfirst  %+v\nsecond %+v", cfg, again)
		}
	})
}

func TestConfigFromJSONDefaults(t *testing.T) {
	cfg, err := ConfigFromJSON(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg != DefaultConfig() {
		t.Fatalf("empty file should yield defaults: %+v", cfg)
	}
}

func TestConfigFromJSONOverlay(t *testing.T) {
	in := `{"rows": 64, "cols": 32, "ring_size": 16, "global_buffer_bytes": 8388608, "hbm_bytes_per_cycle": 512, "disable_operator_fusion": true}`
	cfg, err := ConfigFromJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rows != 64 || cfg.Cols != 32 || cfg.RingSize != 16 {
		t.Fatalf("overlay wrong: %+v", cfg)
	}
	if cfg.GB.CapacityBytes != 8<<20 || cfg.HBM.BytesPerCycle != 512 {
		t.Fatalf("memory overlay wrong: %+v", cfg)
	}
	if !cfg.DisableOperatorFusion {
		t.Fatal("ablation flag lost")
	}
	// Unset fields keep defaults.
	if cfg.MACsPerPE != 2 || cfg.FreqGHz != 1.0 {
		t.Fatalf("defaults lost: %+v", cfg)
	}
}

func TestConfigFromJSONRejects(t *testing.T) {
	cases := []string{
		`{"rows": 0}`,           // fails validation
		`{"ring_size": 1}`,      // below minimum
		`{"unknown_field": 3}`,  // typo protection
		`{"precision": "int8"}`, // precision is the session's, not the config's
		`{"rows": "sixty"}`,     // wrong type
		`not json`,              // malformed
	}
	for _, in := range cases {
		if _, err := ConfigFromJSON(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

// ConfigToJSON encodes a configuration in the wire form ConfigFromJSON
// reads, with every field explicit, so the output is self-contained and the
// round trip ConfigFromJSON(ConfigToJSON(cfg)) reproduces cfg exactly for
// any valid configuration. Fields the wire form does not carry (scheduling
// policy, GB bank geometry, HBM burst parameters) stay at their defaults on
// re-read, matching what ConfigFromJSON can express.
func ConfigToJSON(w io.Writer, cfg Config) error {
	j := configJSON{
		Rows:                   &cfg.Rows,
		Cols:                   &cfg.Cols,
		MACsPerPE:              &cfg.MACsPerPE,
		RegArrayDepth:          &cfg.RegArrayDepth,
		UpdateBufBytes:         &cfg.UpdateBufBytes,
		WeightBufBytes:         &cfg.WeightBufBytes,
		AggBufBytes:            &cfg.AggBufBytes,
		GBBytes:                &cfg.GB.CapacityBytes,
		HBMBytesPerCycle:       &cfg.HBM.BytesPerCycle,
		RingSize:               &cfg.RingSize,
		BatchSize:              &cfg.BatchSize,
		FreqGHz:                &cfg.FreqGHz,
		DisableOperatorFusion:  &cfg.DisableOperatorFusion,
		DisableDoubleBuffering: &cfg.DisableDoubleBuffering,
		FeatureParallel:        &cfg.FeatureParallel,
		FeatureBytes:           &cfg.FeatureBytes,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(j); err != nil {
		return fmt.Errorf("core: encoding config: %w", err)
	}
	return nil
}
