package sched

import (
	"fmt"
	"math"
	"sort"
)

// Scheduler runs Algorithm 1 (and the ablation policies) with reusable
// scratch state: after the first call, Schedule performs no heap allocations
// in steady state. Tasks, groups and all sorting scratch are owned by the
// Scheduler and recycled across calls.
//
// Algorithm 1's cost follows the batch, not the PE array. With B vertices
// in the batch, T_n tasks, G_n groups and k ≤ min(B, T_n) occupied tasks:
//
//   - the degree sort is a stable counting sort keyed on the bounded int32
//     degrees, O(B + D log D) for D distinct degrees;
//   - first fit places each vertex whose degree exceeds the edge target on
//     the next task directly (the overflow prefix, O(1) a vertex) and finds
//     every other vertex's task in a min tree over task loads, O(log T_n)
//     a vertex;
//   - grouping sorts and places only the k occupied tasks, O(k log k +
//     k·G_n) at worst, then appends the empty tasks to one group. While
//     some group is untouched, a task goes straight to the lowest-indexed
//     untouched group without scoring any: every group in use holds an
//     occupied task, so its vertex load is at least 1, and adding a task
//     of v vertices and e edges to it scores strictly above adding it to
//     an empty group (both normalized loads are at least as high and the
//     vertex one higher, so the max term is no lower and the tie-break sum
//     strictly higher; the max terms can tie, so the gap is at least the
//     tie-break's weight on one vertex, 1e-3/targetV, which still dwarfs
//     float rounding at any batch size). Only the tasks placed after every
//     group is in use, max(k − G_n, 0) of them, score all G_n groups.
//
// Resetting and listing the tasks and groups adds O(T_n + G_n). DESIGN.md
// §4e sets these costs beside §IV-B's t_ts. The S+DS ablation's edge-greedy
// grouping still scans every group for each task, O(T_n·G_n).
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

	// loads is the first-fit min tree over task edge loads.
	loads minTree

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
	s.loads = newMinTree(cfg.NumTasks)
	s.sorted = taskSorter{
		tasks: make([]*Task, 0, cfg.NumTasks),
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

// binFirstFit is Algorithm 1's First_Fit over the degree-sorted order: each
// vertex goes to the first task, scanning round from a cursor, whose edge
// load stays within target = ceil(total/T_n), and to the least-loaded task
// (lowest index on ties) when none has room; see the package-level doc on
// firstFit for the algorithm rationale. The cursor rotates on every
// placement: plain first-fit would funnel runs of equal-degree vertices (in
// particular the zero-degree tail of redundancy-reduced workloads) into the
// lowest-indexed bins, blowing up their vertex counts even though edges stay
// balanced.
func (s *Scheduler) binFirstFit(degrees []int32, order []int32, rotate bool) {
	numTasks := s.cfg.NumTasks
	var total int64
	for _, v := range order {
		total += int64(degrees[v])
	}
	target := (total + int64(numTasks) - 1) / int64(numTasks)
	// The overflow prefix: the order is degree-descending, so every vertex
	// above the target comes first. No task has room for one, so each goes
	// to the least-loaded task, which is the next empty one: k earlier such
	// vertices overfill tasks 0..k-1 and leave the rest empty, and fewer
	// than T_n exist, because k of them carry more than k·target edges and
	// T_n·target ≥ total. The cursor does not move.
	k := 0
	for ; k < len(order) && k < numTasks; k++ {
		v := order[k]
		d := int64(degrees[v])
		if d <= target {
			break
		}
		s.place(&s.tasks[k], v, d)
	}
	if k == len(order) {
		return
	}
	s.loads.reset(s.tasks)
	cursor := 0
	for _, v := range order[k:] {
		d := int64(degrees[v])
		var i int
		if s.loads.lowest() > target-d {
			i = s.loads.argmin() // no task has room
		} else {
			if i = s.loads.firstAtMost(cursor, target-d); i < 0 {
				i = s.loads.firstAtMost(0, target-d)
			}
			if rotate {
				cursor = (i + 1) % numTasks
			}
		}
		t := &s.tasks[i]
		s.place(t, v, d)
		s.loads.set(i, t.Edges)
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
//
// Only occupied tasks are sorted and scored. An empty task sorts last (its
// key is 0 and every occupied task's is positive) and adds no load, so every
// empty task goes, in ID order, to the group a zero-load task scores best.
// Groups are used in index order, and while one is untouched it is the best
// (see the Scheduler comment), so the first G_n tasks each open the next
// group, and the empty tasks join the next untouched group if one is left.
// Only then does a task score the groups.
func (s *Scheduler) groupVertexSorted() {
	s.sorted.tasks = s.sorted.tasks[:0]
	var totalV, totalE float64
	for _, t := range s.taskPtrs {
		if t.count > 0 {
			s.sorted.tasks = append(s.sorted.tasks, t)
			totalV += float64(t.count)
			totalE += float64(t.Edges)
		}
	}
	numGroups := s.cfg.NumGroups
	// Per-group targets normalize the two load dimensions.
	targetV := totalV/float64(numGroups) + 1
	targetE := totalE/float64(numGroups) + 1
	// Largest-task-first in normalized size (LPT): the few hub tasks that
	// overflowed the first-fit edge target are placed while groups are
	// still empty, and the many near-target tasks then smooth both
	// dimensions.
	for _, t := range s.sorted.tasks {
		sv := float64(t.count) / targetV
		se := float64(t.Edges) / targetE
		if se > sv {
			s.sorted.key[t.ID] = se
		} else {
			s.sorted.key[t.ID] = sv
		}
	}
	sort.Stable(&s.sorted)
	for i := range s.gv {
		s.gv[i] = 0
		s.ge[i] = 0
	}
	used := 0 // groups 0..used-1 hold tasks
	for _, t := range s.sorted.tasks {
		best := used
		if used < numGroups {
			used++
		} else {
			best = s.bestGroup(float64(t.count), float64(t.Edges), targetV, targetE)
		}
		g := s.groupPtrs[best]
		g.Tasks = append(g.Tasks, t)
		s.gv[best] += float64(t.count)
		s.ge[best] += float64(t.Edges)
	}
	if len(s.sorted.tasks) == len(s.taskPtrs) {
		return
	}
	best := used
	if used == numGroups {
		best = s.bestGroup(0, 0, targetV, targetE)
	}
	g := s.groupPtrs[best]
	for _, t := range s.taskPtrs {
		if t.count == 0 {
			g.Tasks = append(g.Tasks, t)
		}
	}
}

// bestGroup returns the lowest-indexed group with the lowest score for a
// task of v vertices and e edges: the worse of the group's two normalized
// loads after placement, so neither phase's balance is sacrificed, with ties
// broken on their sum.
func (s *Scheduler) bestGroup(v, e, targetV, targetE float64) int {
	best, bestScore := 0, math.Inf(1)
	for i, gv := range s.gv {
		nv := (gv + v) / targetV
		ne := (s.ge[i] + e) / targetE
		score := nv
		if ne > score {
			score = ne
		}
		score += 1e-3 * (nv + ne)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
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
	s.sorted.tasks = append(s.sorted.tasks[:0], s.taskPtrs...)
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

// minTree is a min segment tree over the task edge loads: node[1] is the
// root, the leaves start at node[n] and the leaves past NumTasks hold
// MaxInt64, so first fit never picks them. Each query and update walks one
// root-to-leaf path, O(log T_n).
type minTree struct {
	n    int // leaf count, the least power of two ≥ NumTasks
	node []int64
}

func newMinTree(numTasks int) minTree {
	n := 1
	for n < numTasks {
		n <<= 1
	}
	t := minTree{n: n, node: make([]int64, 2*n)}
	for i := n + numTasks; i < 2*n; i++ {
		t.node[i] = math.MaxInt64
	}
	return t
}

// reset loads every task's edge load and rebuilds the inner nodes.
func (t *minTree) reset(tasks []Task) {
	for i := range tasks {
		t.node[t.n+i] = tasks[i].Edges
	}
	for i := t.n - 1; i > 0; i-- {
		t.node[i] = min(t.node[2*i], t.node[2*i+1])
	}
}

// set updates leaf i to load and repairs its ancestors.
func (t *minTree) set(i int, load int64) {
	i += t.n
	t.node[i] = load
	for i > 1 {
		i >>= 1
		t.node[i] = min(t.node[2*i], t.node[2*i+1])
	}
}

// lowest returns the lowest load.
func (t *minTree) lowest() int64 { return t.node[1] }

// argmin returns the lowest index holding the lowest load.
func (t *minTree) argmin() int {
	i := 1
	for i < t.n {
		i <<= 1
		if t.node[i] > t.node[i+1] {
			i++
		}
	}
	return i - t.n
}

// firstAtMost returns the lowest index ≥ lo whose load is at most lim, or
// -1 when there is none.
func (t *minTree) firstAtMost(lo int, lim int64) int {
	i := lo + t.n
	for t.node[i] > lim {
		// Step to the next subtree to the right: climb while i is a
		// right child, then take the sibling. Climbing past the root
		// means the search ran off the end.
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1
		}
		i++
	}
	for i < t.n {
		i <<= 1
		if t.node[i] > lim {
			i++
		}
	}
	return i - t.n
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
