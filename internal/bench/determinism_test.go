package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// deterministicExperiments returns the experiment set and dataset subset the
// determinism cross-check runs. Normal builds cover the full suite on the
// full Table II dataset list; under the race detector the heaviest sweeps
// (the 4K-MAC scalability grid, the hardcoded Reddit/Nell extensions) are
// dropped and the matrix shrinks to two datasets so the run stays tractable.
func deterministicExperiments() ([]Experiment, []string) {
	all := Experiments()
	if !raceEnabled {
		return all, nil
	}
	keep := map[string]bool{
		"table1": true, "fig1a": true, "fig1b": true, "fig1c": true,
		"fig10": true, "fig11": true, "table3": true, "fig13a": true,
		"fig13b": true, "fig15": true, "fig16a": true, "fig16b": true,
		"ext-gat": true, "ext-igcn": true, "ext-systolic": true, "ext-quant": true,
	}
	var exps []Experiment
	for _, e := range all {
		if keep[e.ID] {
			exps = append(exps, e)
		}
	}
	return exps, []string{"cora", "citeseer"}
}

// determinismChild names the environment variable that makes TestDeterminism
// the eight-worker child: it runs that half and writes its exports, as a
// JSON object of experiment id to export, to the file the variable names.
const determinismChild = "SCALE_DETERMINISM_CHILD_OUT"

// TestDeterminism is the engine's correctness proof: the full evaluation
// suite run serially and run on eight workers must export byte-identical
// JSON for every figure and table. This is a cross-check between two live
// runs, not a golden-file comparison, so it catches both
// scheduling-dependent float summation and any shared-state race that
// corrupts a result. The dataset profiles and their schedule and balance
// memos are shared process-wide, so the eight-worker half runs in a child
// process (this test binary re-executed) and computes all of them again,
// concurrently, from empty memos.
func TestDeterminism(t *testing.T) {
	exps, datasets := deterministicExperiments()
	run := func(workers int) map[string]string {
		s := NewSuite()
		if datasets != nil {
			s.Datasets = datasets
		}
		r := NewRunner(s, workers)
		out := make(map[string]string, len(exps))
		for _, res := range r.Run(exps) {
			if res.Err != nil {
				t.Fatalf("workers=%d %s: %v", workers, res.Experiment.ID, res.Err)
			}
			j, err := res.Table.JSON()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, res.Experiment.ID, err)
			}
			out[res.Experiment.ID] = j
		}
		return out
	}
	if out := os.Getenv(determinismChild); out != "" {
		b, err := json.Marshal(run(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, b, 0o600); err != nil {
			t.Fatal(err)
		}
		return
	}
	serial := run(1)
	parallel := parallelInChild(t)
	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("expected %d exports, got serial=%d parallel=%d", len(exps), len(serial), len(parallel))
	}
	for _, e := range exps {
		if serial[e.ID] != parallel[e.ID] {
			t.Errorf("%s: parallel export differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				e.ID, serial[e.ID], parallel[e.ID])
		}
	}
}

// parallelInChild re-executes the test binary to run only TestDeterminism's
// eight-worker half and returns the exports the child wrote.
func parallelInChild(t *testing.T) map[string]string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "exports.json")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDeterminism$")
	cmd.Env = append(os.Environ(), determinismChild+"="+out)
	if log, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("eight-worker child: %v\n%s", err, log)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("eight-worker child wrote no exports: %v", err)
	}
	var exports map[string]string
	if err := json.Unmarshal(b, &exports); err != nil {
		t.Fatal(err)
	}
	return exports
}

// TestDeterminismRepeatedParallel runs the same parallel sweep twice on one
// warm suite: cached results must re-export identically (guards against
// generators reading from map iteration order even when no simulation runs).
func TestDeterminismRepeatedParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("covered by TestDeterminism under race")
	}
	exps, _ := deterministicExperiments()
	s := NewSuite()
	r := NewRunner(s, 8)
	export := func() map[string]string {
		out := make(map[string]string, len(exps))
		for _, res := range r.Run(exps) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Experiment.ID, res.Err)
			}
			j, err := res.Table.JSON()
			if err != nil {
				t.Fatal(err)
			}
			out[res.Experiment.ID] = j
		}
		return out
	}
	first := export()
	second := export()
	for _, e := range exps {
		if first[e.ID] != second[e.ID] {
			t.Errorf("%s: warm re-export differs from first export", e.ID)
		}
	}
}
