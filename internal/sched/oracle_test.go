package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The direct formulations of Algorithm 1's two phases, kept as test oracles
// for the Scheduler: oracleBinFirstFit scans every task from the cursor for
// each vertex and falls back to a scan for the least-loaded task, O(B·T_n),
// and oracleGroupVertexSorted sorts and scores every task, empty or not,
// against every group, O(T_n·G_n). Schedule must return exactly what they
// return: the same groups, task order, task loads and vertex lists.

// oracleSchedule schedules batch on a fresh Scheduler through the oracle
// phases. The degree order comes from sort.SliceStable, the ablation phases
// are the Scheduler's own.
func oracleSchedule(degrees, batch []int32, cfg Config, materialize bool) ([]*TaskGroup, error) {
	s, err := NewScheduler(cfg, materialize)
	if err != nil {
		return nil, err
	}
	if err := validateBatch(degrees, batch); err != nil {
		return nil, err
	}
	switch cfg.Policy {
	case DegreeVertexAware, DegreeAware:
		order := slices.Clone(batch)
		sort.SliceStable(order, func(i, j int) bool { return degrees[order[i]] > degrees[order[j]] })
		oracleBinFirstFit(s, degrees, order, cfg.Policy == DegreeVertexAware)
	case VertexAware:
		s.binVertexChunks(degrees, batch)
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", cfg.Policy)
	}
	switch cfg.Policy {
	case DegreeVertexAware:
		oracleGroupVertexSorted(s)
	case DegreeAware:
		s.groupEdgeGreedy()
	default:
		s.groupRoundRobin()
	}
	return s.groupPtrs, nil
}

func oracleBinFirstFit(s *Scheduler, degrees []int32, order []int32, rotate bool) {
	numTasks := s.cfg.NumTasks
	var total int64
	for _, v := range order {
		total += int64(degrees[v])
	}
	target := (total + int64(numTasks) - 1) / int64(numTasks)
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

func oracleGroupVertexSorted(s *Scheduler) {
	var totalV, totalE float64
	for _, t := range s.taskPtrs {
		totalV += float64(t.count)
		totalE += float64(t.Edges)
	}
	numGroups := s.cfg.NumGroups
	targetV := totalV/float64(numGroups) + 1
	targetE := totalE/float64(numGroups) + 1
	sorted := taskSorter{
		tasks: slices.Clone(s.taskPtrs),
		key:   make([]float64, len(s.taskPtrs)),
	}
	for _, t := range s.taskPtrs {
		sv := float64(t.count) / targetV
		se := float64(t.Edges) / targetE
		if se > sv {
			sorted.key[t.ID] = se
		} else {
			sorted.key[t.ID] = sv
		}
	}
	sort.Stable(&sorted)
	gv := make([]float64, numGroups)
	ge := make([]float64, numGroups)
	for _, t := range sorted.tasks {
		best, bestScore := 0, math.Inf(1)
		for i := range s.groupPtrs {
			nv := (gv[i] + float64(t.count)) / targetV
			ne := (ge[i] + float64(t.Edges)) / targetE
			score := math.Max(nv, ne) + 1e-3*(nv+ne)
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		g := s.groupPtrs[best]
		g.Tasks = append(g.Tasks, t)
		gv[best] += float64(t.count)
		ge[best] += float64(t.Edges)
	}
}

// scheduleDiff returns the first difference between two schedules, or "".
func scheduleDiff(got, want []*TaskGroup) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(got), len(want))
	}
	for gi := range want {
		gt, wt := got[gi].Tasks, want[gi].Tasks
		if len(gt) != len(wt) {
			return fmt.Sprintf("group %d: %d tasks, want %d", gi, len(gt), len(wt))
		}
		for ti := range wt {
			g, w := gt[ti], wt[ti]
			switch {
			case g.ID != w.ID:
				return fmt.Sprintf("group %d slot %d: task %d, want %d", gi, ti, g.ID, w.ID)
			case g.Edges != w.Edges || g.count != w.count:
				return fmt.Sprintf("task %d: %d edges over %d vertices, want %d over %d",
					w.ID, g.Edges, g.count, w.Edges, w.count)
			case !slices.Equal(g.Vertices, w.Vertices):
				return fmt.Sprintf("task %d: vertices %v, want %v", w.ID, g.Vertices, w.Vertices)
			}
		}
	}
	return ""
}

// oracleDegrees draws n degrees of one of five shapes: small values with
// many ties, a zero-degree tail, all equal, a power-law body with hubs far
// above any first-fit target, and small-open's batches (4n uniformly random
// in-edges).
func oracleDegrees(rng *rand.Rand, n int) []int32 {
	d := make([]int32, n)
	switch rng.Intn(5) {
	case 0:
		for i := range d {
			d[i] = int32(rng.Intn(8))
		}
	case 1:
		for i := range d[:n/2] {
			d[i] = int32(1 + rng.Intn(50))
		}
	case 2:
		v := int32(rng.Intn(20))
		for i := range d {
			d[i] = v
		}
	case 3:
		for i := range d {
			if rng.Intn(20) == 0 {
				d[i] = int32(rng.Intn(5000))
			} else {
				d[i] = int32(rng.Intn(5))
			}
		}
	default:
		for e := 0; e < 4*n; e++ {
			d[rng.Intn(n)]++
		}
	}
	rng.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// oracleBatch draws a batch over n vertices: all of them, a consecutive
// run, a random subset, or none.
func oracleBatch(rng *rand.Rand, n int) []int32 {
	switch rng.Intn(6) {
	case 0:
		return AllVertices(n)
	case 1:
		return nil
	case 2:
		lo := rng.Intn(n)
		return AllVertices(n)[lo : lo+rng.Intn(n-lo)+1]
	default:
		perm := rng.Perm(n)[:rng.Intn(n)+1]
		b := make([]int32, len(perm))
		for i, v := range perm {
			b[i] = int32(v)
		}
		return b
	}
}

// checkAgainstOracle schedules each batch in turn on one Scheduler, so the
// later calls run on recycled scratch, and requires every result to equal
// the oracle's.
func checkAgainstOracle(t *testing.T, degrees []int32, cfg Config, materialize bool, batches ...[]int32) {
	t.Helper()
	s, err := NewScheduler(cfg, materialize)
	if err != nil {
		t.Fatal(err)
	}
	for call, batch := range batches {
		want, err := oracleSchedule(degrees, batch, cfg, materialize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Schedule(degrees, batch)
		if err != nil {
			t.Fatal(err)
		}
		if d := scheduleDiff(got, want); d != "" {
			t.Fatalf("T_n=%d G_n=%d %v materialize=%v, call %d over %d vertices: %s",
				cfg.NumTasks, cfg.NumGroups, cfg.Policy, materialize, call, len(batch), d)
		}
	}
}

// Schedule must reproduce the oracle exactly over random array shapes,
// every policy, both materialize modes and two calls per Scheduler.
func TestScheduleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Fixed shapes first: one task, every group a task, and small-open's
	// and resident-rw's arrays. Then random arrays, every third one tiny:
	// a few tasks over a dozen vertices is where first fit wraps round.
	shapes := [][2]int{{1, 1}, {9, 9}, {600, 600}, {512, 256}, {512, 128}, {512, 64}, {512, 4}}
	for c := 0; c < 180; c++ {
		numTasks, n := 1+rng.Intn(600), 1+rng.Intn(1000)
		switch {
		case c < len(shapes):
			numTasks = shapes[c][0]
		case c%3 == 0:
			numTasks, n = 1+rng.Intn(8), 1+rng.Intn(16)
		case c%3 == 1:
			n = 1 + rng.Intn(128)
		}
		numGroups := 1 + rng.Intn(numTasks)
		if c < len(shapes) {
			numGroups = shapes[c][1]
		}
		degrees := oracleDegrees(rng, n)
		batches := [][]int32{oracleBatch(rng, n), oracleBatch(rng, n)}
		for _, pol := range []Policy{DegreeVertexAware, DegreeAware, VertexAware} {
			for _, materialize := range []bool{false, true} {
				cfg := Config{NumTasks: numTasks, NumGroups: numGroups, Policy: pol}
				checkAgainstOracle(t, degrees, cfg, materialize, batches...)
			}
		}
	}
}

// FuzzScheduleMatchesOracle holds Schedule to the oracle on fuzzed degree
// tables and array shapes. Each byte is one vertex: 0xF0 and above are hubs
// of 997–15,952 edges, the rest degrees 0–23.
func FuzzScheduleMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 3, 7, 0, 0, 1, 0xF3, 2}, uint16(4), uint16(2), uint8(0), true)
	f.Add([]byte{0, 0, 0, 0}, uint16(0), uint16(0), uint8(1), false)
	f.Add([]byte("small-open batches schedule into 512 tasks"), uint16(511), uint16(255), uint8(0), true)
	f.Add([]byte{0xFF, 0xF0, 0xF7, 5, 5, 5, 5, 0, 0}, uint16(599), uint16(599), uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, tasks, groups uint16, policy uint8, materialize bool) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		degrees := make([]int32, len(data))
		for i, b := range data {
			if b >= 0xF0 {
				degrees[i] = int32(b-0xEF) * 997
			} else {
				degrees[i] = int32(b % 24)
			}
		}
		numTasks := 1 + int(tasks)%600
		cfg := Config{
			NumTasks:  numTasks,
			NumGroups: 1 + int(groups)%numTasks,
			Policy:    Policy(policy % 3),
		}
		all := AllVertices(len(data))
		checkAgainstOracle(t, degrees, cfg, materialize, all, all[len(all)/3:])
	})
}
