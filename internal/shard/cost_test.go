package shard

import (
	"errors"
	"testing"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/noc"
)

func TestEstimateCommValidation(t *testing.T) {
	g := graph.CommunityGraph(200, 4, 8, 3)
	plan, err := PartitionGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateComm(nil, []int{8, 4}, 4, noc.Ring, 1000); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("nil plan: err = %v, want ErrBadConfig", err)
	}
	if _, err := EstimateComm(plan, []int{8}, 4, noc.Ring, 1000); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("short dims: err = %v, want ErrBadConfig", err)
	}
	if _, err := EstimateComm(plan, []int{8, 4}, 0, noc.Ring, 1000); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("zero elem bytes: err = %v, want ErrBadConfig", err)
	}
	if _, err := EstimateComm(plan, []int{8, 4}, 4, noc.Kind(42), 1000); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("bad topology: err = %v, want ErrBadConfig", err)
	}
}

func TestEstimateCommModel(t *testing.T) {
	g := graph.CommunityGraph(600, 12, 10, 9)
	const t1 = 10_000_000 // single-device compute estimate, cycles

	// K=1: no cut, no exchange, speedup exactly 1.
	one, err := PartitionGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	est1, err := EstimateComm(one, []int{602, 64, 41}, 4, noc.Ring, t1)
	if err != nil {
		t.Fatal(err)
	}
	if est1.ExchangeCycles != 0 || est1.HaloBytes != 0 {
		t.Fatalf("K=1 has exchange cost: %+v", est1)
	}
	if est1.PredictedSpeedup != 1 {
		t.Fatalf("K=1 speedup %v, want 1", est1.PredictedSpeedup)
	}

	plan, err := PartitionGraph(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateComm(plan, []int{602, 64, 41}, 4, noc.Ring, t1)
	if err != nil {
		t.Fatal(err)
	}
	// dims = [602, 64, 41] is 2 layers → 1 exchange, of width dims[1]=64.
	wantBytes := int64(plan.HaloVertices) * 64 * 4
	if est.HaloBytes != wantBytes {
		t.Fatalf("halo bytes %d, want %d", est.HaloBytes, wantBytes)
	}
	if est.ExchangeCycles <= 0 {
		t.Fatal("4-way split of a connected graph must have exchange cost")
	}
	if est.PredictedSpeedup <= 1 || est.PredictedSpeedup > 4 {
		t.Fatalf("speedup %v outside (1, 4]", est.PredictedSpeedup)
	}
	if est.ExposedFraction <= 0 || est.ExposedFraction >= 1 {
		t.Fatalf("exposed fraction %v outside (0, 1)", est.ExposedFraction)
	}
	if est.Topology != "ring" || est.Shards != 4 {
		t.Fatalf("labels wrong: %+v", est)
	}

	// Halo bytes scale linearly with the element size.
	estByte, err := EstimateComm(plan, []int{602, 64, 41}, 1, noc.Ring, t1)
	if err != nil {
		t.Fatal(err)
	}
	if estByte.HaloBytes*4 != est.HaloBytes {
		t.Fatalf("1-byte halo bytes %d, want quarter of %d", estByte.HaloBytes, est.HaloBytes)
	}

	// A costlier topology (more hops at K=4) must predict more exchange time
	// and no better speedup.
	benes, err := EstimateComm(plan, []int{602, 64, 41}, 4, noc.Benes, t1)
	if err != nil {
		t.Fatal(err)
	}
	if benes.ExchangeCycles <= est.ExchangeCycles {
		t.Fatalf("benes exchange %d not above ring %d", benes.ExchangeCycles, est.ExchangeCycles)
	}
	if benes.PredictedSpeedup > est.PredictedSpeedup {
		t.Fatalf("benes speedup %v above ring %v", benes.PredictedSpeedup, est.PredictedSpeedup)
	}
}
