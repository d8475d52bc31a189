package bench

import (
	"fmt"
	"testing"

	"scale/internal/arch"
	"scale/internal/baseline"
)

// Runner.Run must return results in input order with per-experiment errors
// carried in the result, not aborting the sweep.
func TestRunnerOrderingAndErrors(t *testing.T) {
	exps := make([]Experiment, 8)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID:          fmt.Sprintf("exp%d", i),
			Description: "test",
			Run: func(*Suite) (*Table, error) {
				if i == 5 {
					return nil, fmt.Errorf("boom")
				}
				tb := &Table{Title: fmt.Sprintf("t%d", i)}
				tb.AddRow("x")
				return tb, nil
			},
		}
	}
	results := NewRunner(NewSuite(), 4).Run(exps)
	if len(results) != len(exps) {
		t.Fatalf("got %d results for %d experiments", len(results), len(exps))
	}
	for i, res := range results {
		if res.Experiment.ID != exps[i].ID {
			t.Errorf("result %d holds %s", i, res.Experiment.ID)
		}
		if i == 5 {
			if res.Err == nil {
				t.Error("experiment 5 should carry its error")
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("experiment %d: %v", i, res.Err)
		}
		if want := fmt.Sprintf("t%d", i); res.Table == nil || res.Table.Title != want {
			t.Errorf("result %d table mismatch", i)
		}
	}
}

// Regression for the cache-key bug: a caller-supplied accelerator evaluated
// before and after the suite's MAC budget changes must occupy two cache
// entries — the old key (name|model|dataset|macs) collided because the
// accelerator's own MAC count is independent of the suite budget. Entries
// are told apart by result identity: a cache hit returns the cached
// *arch.Result itself.
func TestCacheKeyCarriesSuiteBudget(t *testing.T) {
	s := NewSuite()
	a := baseline.NewAWBGCN(512) // fixed MACs, independent of s.MACs
	run := func() *arch.Result {
		t.Helper()
		r, err := s.Run(a, "gcn", "cora")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := run()
	if run() != first {
		t.Fatal("results cache did not keep the first entry")
	}
	s.MACs = 2048
	second := run()
	if second == first {
		t.Fatal("reconfigured budget reused the stale entry")
	}
	// Same budget again: must hit the cache, not compute a third entry.
	if run() != second {
		t.Fatal("cache miss on identical key")
	}
}
