package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"scale/internal/graph"
)

// schedulerTestConfigs spans the policy × shape space the simulator uses.
func schedulerTestConfigs() []Config {
	return []Config{
		{NumTasks: 512, NumGroups: 32, Policy: DegreeVertexAware},
		{NumTasks: 512, NumGroups: 32, Policy: DegreeAware},
		{NumTasks: 512, NumGroups: 512, Policy: VertexAware},
		{NumTasks: 64, NumGroups: 8, Policy: DegreeVertexAware},
	}
}

// A reused compact Scheduler must produce the same per-task and per-group
// loads as the pure materializing Schedule function, on every dataset ×
// policy × batch size — the equivalence that lets the timing engine drop
// vertex-id materialization entirely.
func TestSchedulerCompactMatchesMaterialized(t *testing.T) {
	for _, ds := range []string{"cora", "citeseer", "pubmed"} {
		p := graph.MustByName(ds).Profile()
		for _, cfg := range schedulerTestConfigs() {
			for _, batchSize := range []int{512, 1024, p.NumVertices()} {
				compact, err := NewScheduler(cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				for bi, vb := range BatchesOf(AllVertices(p.NumVertices()), batchSize) {
					want, err := Schedule(p.Degrees, vb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := compact.Schedule(p.Degrees, vb)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s %v b=%d batch %d: %d groups, want %d",
							ds, cfg.Policy, batchSize, bi, len(got), len(want))
					}
					for gi := range want {
						if got[gi].Edges() != want[gi].Edges() ||
							got[gi].NumVertices() != want[gi].NumVertices() ||
							len(got[gi].Tasks) != len(want[gi].Tasks) {
							t.Fatalf("%s %v b=%d batch %d group %d: compact (e=%d v=%d t=%d) != materialized (e=%d v=%d t=%d)",
								ds, cfg.Policy, batchSize, bi, gi,
								got[gi].Edges(), got[gi].NumVertices(), len(got[gi].Tasks),
								want[gi].Edges(), want[gi].NumVertices(), len(want[gi].Tasks))
						}
						for ti := range want[gi].Tasks {
							gt, wt := got[gi].Tasks[ti], want[gi].Tasks[ti]
							if gt.Edges != wt.Edges || gt.NumVertices() != wt.NumVertices() {
								t.Fatalf("%s %v b=%d batch %d group %d task %d: compact (e=%d v=%d) != materialized (e=%d v=%d)",
									ds, cfg.Policy, batchSize, bi, gi, ti,
									gt.Edges, gt.NumVertices(), wt.Edges, wt.NumVertices())
							}
							if gt.Vertices != nil {
								t.Fatalf("compact task materialized %d vertex ids", len(gt.Vertices))
							}
						}
					}
				}
			}
		}
	}
}

// A reused materializing Scheduler must reproduce the pure Schedule function
// exactly, vertex id by vertex id, across many consecutive calls on recycled
// scratch.
func TestSchedulerMaterializedMatchesPureSchedule(t *testing.T) {
	p := graph.MustByName("citeseer").Profile()
	for _, cfg := range schedulerTestConfigs() {
		reused, err := NewScheduler(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		for bi, vb := range BatchesOf(AllVertices(p.NumVertices()), 700) {
			want, err := Schedule(p.Degrees, vb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.Schedule(p.Degrees, vb)
			if err != nil {
				t.Fatal(err)
			}
			for gi := range want {
				for ti := range want[gi].Tasks {
					gv := got[gi].Tasks[ti].Vertices
					wv := want[gi].Tasks[ti].Vertices
					if len(gv) != len(wv) {
						t.Fatalf("%v batch %d group %d task %d: %d vertices, want %d",
							cfg.Policy, bi, gi, ti, len(gv), len(wv))
					}
					for i := range wv {
						if gv[i] != wv[i] {
							t.Fatalf("%v batch %d group %d task %d vertex %d: %d, want %d",
								cfg.Policy, bi, gi, ti, i, gv[i], wv[i])
						}
					}
				}
			}
		}
	}
}

// The steady-state hot path must not allocate: after the first call has grown
// the scratch, Schedule is allocation-free in both compact and materializing
// modes.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	p := graph.MustByName("pubmed").Profile()
	batches := BatchesOf(AllVertices(p.NumVertices()), 1024)
	for _, materialize := range []bool{false, true} {
		for _, cfg := range schedulerTestConfigs() {
			s, err := NewScheduler(cfg, materialize)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up pass grows order/Vertices/Tasks scratch to capacity.
			for _, vb := range batches {
				if _, err := s.Schedule(p.Degrees, vb); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(3, func() {
				for _, vb := range batches {
					if _, err := s.Schedule(p.Degrees, vb); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("materialize=%v %v: %v allocs per full-layer schedule, want 0",
					materialize, cfg.Policy, allocs)
			}
		}
	}
}

// The counting sort must reproduce sort.SliceStable's permutation exactly
// (stable-sort output is unique given the less relation), including duplicate
// degrees and adversarial batch orders.
func TestCountingSortMatchesStableSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400) + 1
		degrees := make([]int32, n)
		for i := range degrees {
			// Mix a heavy tail in so bucket growth and sparse clearing
			// both trigger.
			if rng.Intn(10) == 0 {
				degrees[i] = int32(rng.Intn(100000))
			} else {
				degrees[i] = int32(rng.Intn(8))
			}
		}
		batch := make([]int32, rng.Intn(n)+1)
		for i := range batch {
			batch[i] = int32(rng.Intn(n))
		}
		want := make([]int32, len(batch))
		copy(want, batch)
		sort.SliceStable(want, func(i, j int) bool {
			return degrees[want[i]] > degrees[want[j]]
		})
		s, err := NewScheduler(Config{NumTasks: 4, NumGroups: 2}, false)
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds on the same scheduler prove the restore-to-zero
		// invariant: a dirty counts table would corrupt round two.
		for round := 0; round < 2; round++ {
			if err := s.sortByDegreeDesc(degrees, batch); err != nil {
				return false
			}
			for i := range want {
				if s.order[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A batch with an out-of-range vertex must fail without poisoning the
// scheduler: the counting-sort buckets are restored to zero on the error
// path, so the next valid call still matches a fresh scheduler.
func TestSchedulerRecoversAfterBatchError(t *testing.T) {
	p := graph.MustByName("cora").Profile()
	cfg := Config{NumTasks: 64, NumGroups: 8, Policy: DegreeVertexAware}
	s, err := NewScheduler(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	good := AllVertices(p.NumVertices())
	bad := append(append([]int32{}, good[:100]...), int32(p.NumVertices())+7)
	if _, err := s.Schedule(p.Degrees, bad); err == nil {
		t.Fatal("out-of-range vertex must error")
	}
	got, err := s.Schedule(p.Degrees, good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Schedule(p.Degrees, good, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range want {
		if got[gi].Edges() != want[gi].Edges() || got[gi].NumVertices() != want[gi].NumVertices() {
			t.Fatalf("group %d after error: (e=%d v=%d), want (e=%d v=%d)",
				gi, got[gi].Edges(), got[gi].NumVertices(), want[gi].Edges(), want[gi].NumVertices())
		}
	}
}

// Groups returned by a Scheduler alias recycled scratch: the next call must
// overwrite them (documented contract — this pins the aliasing so a future
// "optimization" can't silently start copying).
func TestSchedulerGroupsAreRecycled(t *testing.T) {
	p := graph.MustByName("cora").Profile()
	s, err := NewScheduler(Config{NumTasks: 16, NumGroups: 4, Policy: DegreeVertexAware}, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Schedule(p.Degrees, AllVertices(1024))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Schedule(p.Degrees, AllVertices(2048))
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] || first[0] != second[0] {
		t.Fatal("scheduler should recycle group storage across calls")
	}
}

// NumVertices returns the number of vertices in the task.
func (t *Task) NumVertices() int { return t.count }
