package sched

import (
	"fmt"
	"math"
	"sort"
)

// Scheduler runs Algorithm 1 (and the ablation policies) with reusable
// scratch state: after the first call, Schedule performs no heap allocations
// in steady state. The per-batch degree sort is a stable counting sort keyed
// on the bounded int32 degrees (O(B + distinct degrees) instead of
// O(B log B) with a comparison sort), and tasks, groups, and all sorting
// scratch are owned by the Scheduler and recycled across calls.
//
// By default the Scheduler is *compact*: tasks carry only vertex counts and
// edge sums — exactly what the timing engine and the balance metrics consume
// — and never materialize per-task vertex-id lists. Construct with
// materialize=true (or use the package-level Schedule function) when the
// caller walks Task.Vertices, as the functional executor and the
// register-level pipeline do.
//
// A Scheduler is NOT safe for concurrent use, and the groups it returns are
// valid only until its next Schedule call: both are backed by the recycled
// scratch. Callers that need retention or concurrency use the pure Schedule
// function, which allocates a fresh Scheduler per call.
type Scheduler struct {
	cfg         Config
	materialize bool

	tasks     []Task
	taskPtrs  []*Task
	groups    []TaskGroup
	groupPtrs []*TaskGroup

	// Counting-sort state. counts is indexed by degree and kept
	// all-zero between calls (only the buckets a batch touched are
	// cleared, so a few huge-degree hubs don't force O(maxDegree) resets);
	// distinct collects the batch's distinct degree values.
	counts   []int32
	distinct []int32
	order    []int32 // batch sorted degree-descending

	// distSorter wraps distinct for sort.Sort; a persistent sort.Interface
	// (unlike a sort.Slice closure) keeps the hot path allocation-free.
	distSorter degreesDesc

	// Task-grouping scratch.
	sorted taskSorter
	gv, ge []float64 // per-group loads, DVS grouping
	load   []int64   // per-group edge loads, DS grouping
}

// NewScheduler returns a Scheduler for the given configuration. materialize
// selects whether scheduled tasks carry explicit vertex-id lists (see the
// type comment).
func NewScheduler(cfg Config, materialize bool) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg, materialize: materialize}
	s.tasks = make([]Task, cfg.NumTasks)
	s.taskPtrs = make([]*Task, cfg.NumTasks)
	for i := range s.tasks {
		s.tasks[i].ID = i
		s.taskPtrs[i] = &s.tasks[i]
	}
	s.groups = make([]TaskGroup, cfg.NumGroups)
	s.groupPtrs = make([]*TaskGroup, cfg.NumGroups)
	for i := range s.groups {
		s.groups[i].ID = i
		s.groupPtrs[i] = &s.groups[i]
	}
	s.sorted = taskSorter{
		tasks: make([]*Task, cfg.NumTasks),
		key:   make([]float64, cfg.NumTasks),
	}
	s.gv = make([]float64, cfg.NumGroups)
	s.ge = make([]float64, cfg.NumGroups)
	s.load = make([]int64, cfg.NumGroups)
	return s, nil
}

// Schedule partitions the vertex batch into the configured task groups; see
// the package-level Schedule for the contract. The returned groups alias the
// Scheduler's recycled buffers and are invalidated by the next call.
func (s *Scheduler) Schedule(degrees []int32, batch []int32) ([]*TaskGroup, error) {
	for i := range s.tasks {
		t := &s.tasks[i]
		t.Edges = 0
		t.count = 0
		if t.Vertices != nil {
			t.Vertices = t.Vertices[:0]
		}
	}
	for i := range s.groups {
		g := &s.groups[i]
		if g.Tasks != nil {
			g.Tasks = g.Tasks[:0]
		}
	}

	switch s.cfg.Policy {
	case DegreeVertexAware, DegreeAware:
		if err := s.sortByDegreeDesc(degrees, batch); err != nil {
			return nil, err
		}
		s.binFirstFit(degrees, s.order, s.cfg.Policy == DegreeVertexAware)
	case VertexAware:
		if err := validateBatch(degrees, batch); err != nil {
			return nil, err
		}
		s.binVertexChunks(degrees, batch)
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", s.cfg.Policy)
	}

	switch s.cfg.Policy {
	case DegreeVertexAware:
		s.groupVertexSorted()
	case DegreeAware:
		s.groupEdgeGreedy()
	default:
		s.groupRoundRobin()
	}
	return s.groupPtrs, nil
}

func validateBatch(degrees []int32, batch []int32) error {
	for _, v := range batch {
		if v < 0 || int(v) >= len(degrees) {
			return fmt.Errorf("sched: vertex %d outside degree table of %d", v, len(degrees))
		}
	}
	return nil
}

// sortByDegreeDesc fills s.order with batch sorted degree-descending, ties
// in batch order — the same permutation a stable comparison sort produces
// (stable-sort results are unique) — via a counting sort over the distinct
// degree values. Validation of the batch is fused into the counting pass.
func (s *Scheduler) sortByDegreeDesc(degrees []int32, batch []int32) error {
	if cap(s.order) < len(batch) {
		s.order = make([]int32, len(batch))
	}
	s.order = s.order[:len(batch)]
	s.distinct = s.distinct[:0]

	maxd := int32(-1)
	for _, v := range batch {
		if v < 0 || int(v) >= len(degrees) {
			// Restore the all-zero counts invariant before erroring.
			for _, d := range s.distinct {
				s.counts[d] = 0
			}
			return fmt.Errorf("sched: vertex %d outside degree table of %d", v, len(degrees))
		}
		d := degrees[v]
		if d > maxd {
			maxd = d
		}
		if int(d) >= len(s.counts) {
			grown := make([]int32, int(d)+1)
			copy(grown, s.counts)
			s.counts = grown
		}
		if s.counts[d] == 0 {
			s.distinct = append(s.distinct, d)
		}
		s.counts[d]++
	}
	// Descending distinct degrees give the bucket order; the values are
	// unique so an unstable sort suffices.
	s.distSorter.d = s.distinct
	sort.Sort(&s.distSorter)
	start := int32(0)
	for _, d := range s.distinct {
		c := s.counts[d]
		s.counts[d] = start
		start += c
	}
	for _, v := range batch {
		d := degrees[v]
		s.order[s.counts[d]] = v
		s.counts[d]++
	}
	for _, d := range s.distinct {
		s.counts[d] = 0
	}
	return nil
}

// place appends vertex v (degree d) to task t.
func (s *Scheduler) place(t *Task, v int32, d int64) {
	if s.materialize {
		t.Vertices = append(t.Vertices, v)
	}
	t.count++
	t.Edges += d
}

// binFirstFit is Algorithm 1's First_Fit over the degree-sorted order; see
// the package-level doc on firstFit for the algorithm rationale.
func (s *Scheduler) binFirstFit(degrees []int32, order []int32, rotate bool) {
	numTasks := s.cfg.NumTasks
	var total int64
	for _, v := range order {
		total += int64(degrees[v])
	}
	target := (total + int64(numTasks) - 1) / int64(numTasks)
	// The scan cursor rotates on every placement: plain first-fit would
	// funnel runs of equal-degree vertices (in particular the zero-degree
	// tail of redundancy-reduced workloads) into the lowest-indexed bins,
	// blowing up their vertex counts even though edges stay balanced.
	cursor := 0
	for _, v := range order {
		d := int64(degrees[v])
		placed := false
		for i := 0; i < numTasks; i++ {
			t := s.taskPtrs[(cursor+i)%numTasks]
			if t.Edges+d <= target {
				s.place(t, v, d)
				if rotate {
					cursor = (cursor + i + 1) % numTasks
				}
				placed = true
				break
			}
		}
		if !placed {
			least := s.taskPtrs[0]
			for _, t := range s.taskPtrs[1:] {
				if t.Edges < least.Edges {
					least = t
				}
			}
			s.place(least, v, d)
		}
	}
}

// binVertexChunks assigns equal vertex counts per task in batch order,
// disregarding degrees — the S+VS ablation policy.
func (s *Scheduler) binVertexChunks(degrees []int32, batch []int32) {
	numTasks := s.cfg.NumTasks
	per := (len(batch) + numTasks - 1) / numTasks
	for i, v := range batch {
		t := s.taskPtrs[min(i/max(per, 1), numTasks-1)]
		s.place(t, v, int64(degrees[v]))
	}
}

// groupVertexSorted implements Algorithm 1's second phase — combining
// edge-balanced tasks into vertex-balanced task groups with what the paper
// calls "a modified vertex-aware scheduling approach". Tasks are sorted by
// vertex count (as in the pseudocode) and then placed greedily into the
// group with the lowest combined normalized load across both dimensions,
// pairing vertex-heavy tasks with vertex-light ones while keeping the hub
// tasks that overflowed the first-fit edge target from piling into one ring.
func (s *Scheduler) groupVertexSorted() {
	var totalV, totalE float64
	for _, t := range s.taskPtrs {
		totalV += float64(t.count)
		totalE += float64(t.Edges)
	}
	numGroups := s.cfg.NumGroups
	// Per-group targets normalize the two load dimensions.
	targetV := totalV/float64(numGroups) + 1
	targetE := totalE/float64(numGroups) + 1
	// Largest-task-first in normalized size (LPT): the few hub tasks that
	// overflowed the first-fit edge target are placed while groups are
	// still empty, and the many near-target tasks then smooth both
	// dimensions.
	for _, t := range s.taskPtrs {
		sv := float64(t.count) / targetV
		se := float64(t.Edges) / targetE
		if se > sv {
			s.sorted.key[t.ID] = se
		} else {
			s.sorted.key[t.ID] = sv
		}
	}
	copy(s.sorted.tasks, s.taskPtrs)
	sort.Stable(&s.sorted)
	for i := range s.gv {
		s.gv[i] = 0
		s.ge[i] = 0
	}
	for _, t := range s.sorted.tasks {
		best, bestScore := 0, math.Inf(1)
		for i := range s.groupPtrs {
			nv := (s.gv[i] + float64(t.count)) / targetV
			ne := (s.ge[i] + float64(t.Edges)) / targetE
			// Minimize the worse of the two dimensions so neither
			// phase's balance is sacrificed; break ties on the sum.
			score := math.Max(nv, ne) + 1e-3*(nv+ne)
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		g := s.groupPtrs[best]
		g.Tasks = append(g.Tasks, t)
		s.gv[best] += float64(t.count)
		s.ge[best] += float64(t.Edges)
	}
}

// groupEdgeGreedy balances only the edge dimension (largest-edges-first into
// the least-edge-loaded group): the pure degree-aware ablation policy
// (Fig. 13b, S+DS). Aggregation balance is near-perfect; vertex counts —
// and hence update utilization — are left to chance. (With 16 tasks per
// ring the vertex luck partially averages out, so our S+DS update
// utilization lands near 90 % where the paper reports 58.7 %; the direction
// of the ablation is preserved.)
func (s *Scheduler) groupEdgeGreedy() {
	for _, t := range s.taskPtrs {
		s.sorted.key[t.ID] = float64(t.Edges)
	}
	copy(s.sorted.tasks, s.taskPtrs)
	sort.Stable(&s.sorted)
	for i := range s.load {
		s.load[i] = 0
	}
	for _, t := range s.sorted.tasks {
		best := 0
		for i, l := range s.load {
			if l < s.load[best] {
				best = i
			}
		}
		g := s.groupPtrs[best]
		g.Tasks = append(g.Tasks, t)
		s.load[best] += t.Edges
	}
}

// groupRoundRobin places task i into group i % G_n without sorting — the
// grouping used by the vertex-aware ablation policy.
func (s *Scheduler) groupRoundRobin() {
	numGroups := s.cfg.NumGroups
	for i, t := range s.taskPtrs {
		g := s.groupPtrs[i%numGroups]
		g.Tasks = append(g.Tasks, t)
	}
}

// degreesDesc sorts an int32 slice descending without the closure allocation
// sort.Slice would incur per call.
type degreesDesc struct{ d []int32 }

func (x *degreesDesc) Len() int           { return len(x.d) }
func (x *degreesDesc) Less(i, j int) bool { return x.d[i] > x.d[j] }
func (x *degreesDesc) Swap(i, j int)      { x.d[i], x.d[j] = x.d[j], x.d[i] }

// taskSorter stable-sorts tasks descending by key (indexed by Task.ID)
// without allocating: stable-sort output is uniquely determined by the less
// relation, so the result is identical to sort.SliceStable over the same
// keys. Edge sums fit float64's 2^53 integer range, so float keys compare
// exactly like the int64 loads they encode.
type taskSorter struct {
	tasks []*Task
	key   []float64
}

func (ts *taskSorter) Len() int           { return len(ts.tasks) }
func (ts *taskSorter) Less(i, j int) bool { return ts.key[ts.tasks[i].ID] > ts.key[ts.tasks[j].ID] }
func (ts *taskSorter) Swap(i, j int)      { ts.tasks[i], ts.tasks[j] = ts.tasks[j], ts.tasks[i] }
