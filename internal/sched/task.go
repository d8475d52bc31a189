// Package sched implements the paper's degree and vertex-aware task
// scheduling (Algorithm 1, §IV) together with the pure degree-aware and pure
// vertex-aware policies used in the Fig. 13(b) ablation, and the §IV-B
// analytical model of scheduling latency versus aggregation latency that
// bounds the batch size (Fig. 16a).
//
// A Task is an edge-budgeted bin of vertices: its reduce operations run on
// one PE during the aggregation phase. A TaskGroup is the set of tasks
// assigned to one PE ring; the group's vertex count determines the ring's
// update-phase workload.
//
// No scheduling entry point mutates the degree slices or vertex sets it is
// given. The package-level Schedule function additionally builds its result
// in fresh allocations, so concurrent Schedule calls (the bench sweep engine
// issues them from many goroutines) need no synchronization; the reusable
// Scheduler trades that purity for an allocation-free steady state and is
// confined to one goroutine.
package sched

import "fmt"

// Task is a bin of vertices whose aggregations execute on one PE.
//
// The timing engine and the balance metrics consume only the task's vertex
// count and edge sum, so compact schedules (Scheduler's default) leave
// Vertices empty and carry just the counters; materialized schedules (the
// Schedule function, or NewScheduler with materialize=true) list the vertex
// ids explicitly for callers that execute or trace per-vertex work.
type Task struct {
	ID       int
	Vertices []int32 // vertex ids; empty in compact mode
	Edges    int64   // total in-degree of the task's vertices
	count    int     // vertex count, valid in both modes
}

// TaskGroup is the set of tasks mapped onto one PE ring.
type TaskGroup struct {
	ID    int
	Tasks []*Task
}

// Edges returns the group's total aggregation workload.
func (g *TaskGroup) Edges() int64 {
	var e int64
	for _, t := range g.Tasks {
		e += t.Edges
	}
	return e
}

// NumVertices returns the group's total update workload.
func (g *TaskGroup) NumVertices() int {
	n := 0
	for _, t := range g.Tasks {
		n += t.count
	}
	return n
}

// String summarizes the group.
func (g *TaskGroup) String() string {
	return fmt.Sprintf("Group(%d: tasks=%d vertices=%d edges=%d)", g.ID, len(g.Tasks), g.NumVertices(), g.Edges())
}

// Balance quantifies workload balance across a slice of per-unit loads as
// mean/max — exactly the PE-utilization metric of Fig. 13: 1.0 is perfect
// balance, lower values mean idle units waiting on the most loaded one.
func Balance(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(loads))
	return mean / float64(max)
}

// EdgeBalance returns the aggregation-phase balance across groups.
func EdgeBalance(groups []*TaskGroup) float64 {
	loads := make([]int64, len(groups))
	for i, g := range groups {
		loads[i] = g.Edges()
	}
	return Balance(loads)
}

// VertexBalance returns the update-phase balance across groups.
func VertexBalance(groups []*TaskGroup) float64 {
	loads := make([]int64, len(groups))
	for i, g := range groups {
		loads[i] = int64(g.NumVertices())
	}
	return Balance(loads)
}
