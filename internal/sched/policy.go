package sched

import "fmt"

// Policy selects the workload-partitioning strategy.
type Policy int

const (
	// DegreeVertexAware is the paper's Algorithm 1: first-fit
	// edge-balanced tasks, then vertex-sorted modulo grouping.
	DegreeVertexAware Policy = iota
	// DegreeAware balances edges only (ablation S+DS): update-phase
	// vertex counts go unbalanced.
	DegreeAware
	// VertexAware balances vertex counts only (ablation S+VS, and the
	// FlowGNN/PowerGraph-style policy of Fig. 1a): aggregation-phase
	// edges go unbalanced.
	VertexAware
)

// String names the policy using the paper's ablation labels.
func (p Policy) String() string {
	switch p {
	case DegreeVertexAware:
		return "S+DVS"
	case DegreeAware:
		return "S+DS"
	case VertexAware:
		return "S+VS"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config parameterizes a scheduling pass. Per §IV-A, the number of tasks T_n
// equals the number of PEs and the number of task groups G_n equals the
// number of rings.
type Config struct {
	NumTasks  int
	NumGroups int
	Policy    Policy
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumTasks < 1 {
		return fmt.Errorf("sched: NumTasks = %d, need >= 1", c.NumTasks)
	}
	if c.NumGroups < 1 || c.NumGroups > c.NumTasks {
		return fmt.Errorf("sched: NumGroups = %d, need 1..NumTasks (%d)", c.NumGroups, c.NumTasks)
	}
	return nil
}

// Schedule partitions the vertex batch into NumGroups task groups holding
// NumTasks tasks in total. degrees is indexed by vertex id; batch lists the
// vertex ids to schedule (one pipeline batch of size B, §IV-A). Every vertex
// in batch appears in exactly one task, and tasks materialize their vertex-id
// lists.
//
// Schedule is a pure function building its result in fresh allocations, so
// concurrent calls need no synchronization and results may be retained
// indefinitely. Hot paths that schedule many batches under one configuration
// use a reusable Scheduler instead (usually in compact mode), which
// recycles every buffer across calls.
func Schedule(degrees []int32, batch []int32, cfg Config) ([]*TaskGroup, error) {
	s, err := NewScheduler(cfg, true)
	if err != nil {
		return nil, err
	}
	return s.Schedule(degrees, batch)
}

// firstFit is Algorithm 1's First_Fit: bins are fixed at numTasks and each
// bin targets ceil(totalEdges/numTasks) edges. We instantiate the
// unspecified vertex iteration order as degree-descending (first-fit
// decreasing, the standard bin-packing refinement): power-law hubs whose
// degree exceeds the target then land one-per-bin through the least-loaded
// fallback instead of colliding, which is what lets the wrap-around ring
// mapping (§III-B) absorb them. Retained as the test seam for the binning
// phase alone; production paths go through Scheduler.
func firstFit(degrees []int32, batch []int32, numTasks int, rotate bool) []*Task {
	s, err := NewScheduler(Config{NumTasks: numTasks, NumGroups: 1}, true)
	if err != nil {
		panic(err)
	}
	if err := s.sortByDegreeDesc(degrees, batch); err != nil {
		panic(err)
	}
	s.binFirstFit(degrees, s.order, rotate)
	return s.taskPtrs
}

// AllVertices enumerates 0..n-1 as a batch covering a whole profile. Callers
// holding a graph.Profile use its shared Vertices slice instead of
// re-materializing one.
func AllVertices(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

// Batches splits 0..n-1 into consecutive batches of size b (the §IV-A
// pipeline batching with batch size B).
func Batches(n, b int) [][]int32 {
	return BatchesOf(AllVertices(n), b)
}

// BatchesOf splits the vertex slice into consecutive subslices of size b
// without copying, so one backing slice (e.g. graph.Profile.Vertices) serves
// every batching granularity.
func BatchesOf(all []int32, b int) [][]int32 {
	n := len(all)
	if b < 1 {
		b = n
	}
	var out [][]int32
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		out = append(out, all[start:end])
	}
	return out
}
