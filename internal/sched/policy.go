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
