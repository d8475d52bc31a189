package graph

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Vertices must hand every caller the same backing array: the schedule memo
// and the batch iterator rely on sharing it instead of re-materializing
// 0..n-1 per layer.
func TestVerticesShared(t *testing.T) {
	p := NewProfile("v", []int32{1, 2, 3, 4, 5})
	a, b := p.Vertices(), p.Vertices()
	if len(a) != 5 || &a[0] != &b[0] {
		t.Fatal("Vertices should return one shared slice")
	}
	for i, v := range a {
		if v != int32(i) {
			t.Fatalf("Vertices[%d] = %d", i, v)
		}
	}
}

// Batches must subslice the shared vertex slice, not copy it.
func TestProfileBatchesSubslice(t *testing.T) {
	p := NewProfile("b", make([]int32, 10))
	all := p.Vertices()
	bs := p.Batches(4)
	if len(bs) != 3 || len(bs[0]) != 4 || len(bs[2]) != 2 {
		t.Fatalf("Batches: %v", bs)
	}
	if &bs[0][0] != &all[0] || &bs[2][0] != &all[8] {
		t.Fatal("Batches should subslice the shared vertex slice")
	}
	if len(p.Batches(0)) != 1 {
		t.Fatal("b<1 should yield one batch")
	}
}

// Memoize must be singleflight: many goroutines racing on one key observe
// exactly one compute call and all read the same value; distinct keys get
// distinct entries.
func TestMemoizeSingleflight(t *testing.T) {
	p := NewProfile("m", []int32{1, 2, 3})
	var calls atomic.Int32
	const workers = 16
	results := make([]any, workers)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			results[i], _ = Memoize(p, "key-a", func() (any, error) {
				calls.Add(1)
				return &struct{ n int }{n: 42}, nil
			})
		}(i)
	}
	start.Done()
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatal("goroutines observed different memoized values")
		}
	}
	other, _ := Memoize(p, "key-b", func() (string, error) { return "b", nil })
	if other != "b" {
		t.Fatalf("distinct key returned %v", other)
	}
	// Separate profiles must not share memo state: a memo belongs to one
	// degree sequence.
	q := NewProfile("m2", []int32{1, 2, 3})
	var qCalls int
	_, _ = Memoize(q, "key-a", func() (any, error) { qCalls++; return nil, nil })
	if qCalls != 1 {
		t.Fatal("second profile should not see first profile's memo")
	}
}

// MaxDegree and Gini are cached at/after construction; repeated calls must
// agree with a direct scan of the degree table.
func TestCachedScalarsAgree(t *testing.T) {
	p := SyntheticProfile("scalars", 5000, 60000, 0.8, 7)
	var maxDeg int32
	for _, d := range p.Degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if p.MaxDegree() != int(maxDeg) {
		t.Fatalf("MaxDegree = %d, scan says %d", p.MaxDegree(), maxDeg)
	}
	if g1, g2 := p.Gini(), p.Gini(); g1 != g2 {
		t.Fatalf("Gini not stable: %v vs %v", g1, g2)
	}
}
