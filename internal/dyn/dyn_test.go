package dyn

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// refGraph mirrors a dyn.Graph's edge multiset independently, so tests can
// rebuild the expected graph from scratch with the Builder after every batch.
type refGraph struct {
	n     int
	edges [][2]int32 // (src, dst)
	feats [][]float32
}

func newRef(g *graph.Graph, x *tensor.Matrix) *refGraph {
	r := &refGraph{n: g.NumVertices()}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			r.edges = append(r.edges, [2]int32{u, int32(v)})
		}
	}
	for i := 0; i < x.Rows; i++ {
		r.feats = append(r.feats, append([]float32(nil), x.Row(i)...))
	}
	return r
}

func (r *refGraph) apply(t *testing.T, b Batch) {
	t.Helper()
	for _, op := range b.Ops {
		switch op.Op {
		case OpAddEdge:
			r.edges = append(r.edges, [2]int32{op.Src, op.Dst})
		case OpRemoveEdge:
			found := -1
			for i, e := range r.edges {
				if e[0] == op.Src && e[1] == op.Dst {
					found = i
					break
				}
			}
			if found < 0 {
				t.Fatalf("ref: removing nonexistent edge (%d,%d)", op.Src, op.Dst)
			}
			r.edges = append(r.edges[:found], r.edges[found+1:]...)
		case OpAddVertex:
			r.n++
			r.feats = append(r.feats, append([]float32(nil), op.Features...))
		}
	}
}

func (r *refGraph) build(name string) (*graph.Graph, *tensor.Matrix) {
	b := graph.NewBuilder(r.n)
	for _, e := range r.edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build(name), tensor.FromRows(r.feats)
}

func seedDyn(t *testing.T, nVerts, nEdges, dim int, cfg Config) (*Graph, *refGraph) {
	t.Helper()
	base := graph.ErdosRenyi(nVerts, nEdges, 7)
	x := gnn.RandomFeatures(base, dim, 11)
	d, err := New(base, x, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, newRef(base, x)
}

// sameCSR asserts g equals the from-scratch reference graph bit-for-bit:
// identical vertex count and identical sorted rows.
func sameCSR(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape mismatch: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		if !reflect.DeepEqual(got.InNeighbors(v), want.InNeighbors(v)) {
			t.Fatalf("row %d mismatch: got %v want %v", v, got.InNeighbors(v), want.InNeighbors(v))
		}
	}
}

func TestApplyMergeMatchesFromScratch(t *testing.T) {
	d, ref := seedDyn(t, 64, 256, 4, Config{CompactThreshold: math.Inf(1)})
	batches := []Batch{
		{Ops: []Mutation{
			{Op: OpAddEdge, Src: 3, Dst: 9},
			{Op: OpAddEdge, Src: 3, Dst: 9}, // duplicate edges are legal
			{Op: OpAddEdge, Src: 60, Dst: 0},
		}},
		{Ops: []Mutation{
			{Op: OpRemoveEdge, Src: 3, Dst: 9}, // cancels one pending add
			{Op: OpAddVertex, Features: []float32{1, 2, 3, 4}},
			{Op: OpAddEdge, Src: 64, Dst: 1}, // new vertex as source
			{Op: OpAddEdge, Src: 5, Dst: 64}, // and as destination
		}},
	}
	for i, b := range batches {
		if err := d.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		ref.apply(t, b)
		got, gotX, err := d.View()
		if err != nil {
			t.Fatalf("View: %v", err)
		}
		want, wantX := ref.build("ref")
		sameCSR(t, got, want)
		if !gotX.Equal(wantX) {
			t.Fatalf("batch %d: feature matrices differ", i)
		}
	}
	// Remove an edge that exists only in the base CSR.
	base, _, _ := d.View()
	var src, dst int32 = -1, -1
	for v := 0; v < 64 && src < 0; v++ {
		if row := base.InNeighbors(v); len(row) > 0 {
			src, dst = row[0], int32(v)
		}
	}
	b := Batch{Ops: []Mutation{{Op: OpRemoveEdge, Src: src, Dst: dst}}}
	if err := d.Apply(b); err != nil {
		t.Fatalf("base removal: %v", err)
	}
	ref.apply(t, b)
	got, _, _ := d.View()
	want, _ := ref.build("ref")
	sameCSR(t, got, want)
}

// TestPartialRemovalOfDuplicatedBaseEdge is a regression test: when the base
// CSR row holds N duplicate occurrences of an edge and fewer than N are
// removed, the merge must emit the survivors. (The original merge re-read
// the removal count once per surviving duplicate and dropped the whole run —
// caught by the mutate-while-infer soak after a compaction froze overlay
// duplicates into the base.)
func TestPartialRemovalOfDuplicatedBaseEdge(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := 0; i < 3; i++ {
		b.AddEdge(2, 1) // triplicated base edge
	}
	b.AddEdge(0, 1)
	b.AddEdge(3, 1)
	base := b.Build("dup")
	x := gnn.RandomFeatures(base, 2, 11)
	d, err := New(base, x, Config{CompactThreshold: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(base, x)

	batch := Batch{Ops: []Mutation{
		{Op: OpRemoveEdge, Src: 2, Dst: 1},
		{Op: OpAddEdge, Src: 2, Dst: 1}, // an overlay add of the same src must survive too
	}}
	if err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	ref.apply(t, batch)
	got, _, err := d.View()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.build("ref")
	sameCSR(t, got, want)

	// The same partial removal must survive a compaction boundary: compact
	// (freezing the remaining duplicates into a new base), remove another
	// occurrence, and re-check against the from-scratch rebuild.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	batch = Batch{Ops: []Mutation{{Op: OpRemoveEdge, Src: 2, Dst: 1}}}
	if err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	ref.apply(t, batch)
	got, _, err = d.View()
	if err != nil {
		t.Fatal(err)
	}
	want, _ = ref.build("ref")
	sameCSR(t, got, want)
}

func TestApplyRollsBackAtomically(t *testing.T) {
	d, ref := seedDyn(t, 16, 64, 2, Config{})
	before, beforeX, _ := d.View()
	stats := d.Stats()
	bad := Batch{Ops: []Mutation{
		{Op: OpAddEdge, Src: 1, Dst: 2},
		{Op: OpAddVertex, Features: []float32{9, 9}},
		{Op: OpAddEdge, Src: 16, Dst: 3},
		{Op: OpRemoveEdge, Src: 7, Dst: 999}, // out of range: whole batch must unwind
	}}
	err := d.Apply(bad)
	if !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("want ErrBadGraph, got %v", err)
	}
	after, afterX, _ := d.View()
	want, _ := ref.build("ref")
	sameCSR(t, after, want)
	sameCSR(t, after, before)
	if !afterX.Equal(beforeX) {
		t.Fatal("features changed by failed batch")
	}
	if got := d.Stats(); got.Mutations != stats.Mutations || got.Batches != stats.Batches || got.Vertices != stats.Vertices {
		t.Fatalf("counters moved on failed batch: %+v -> %+v", stats, got)
	}
}

func TestApplyRejectsMalformed(t *testing.T) {
	d, _ := seedDyn(t, 8, 24, 3, Config{})
	cases := []struct {
		name string
		b    Batch
		want error
	}{
		{"empty batch", Batch{}, fault.ErrBadGraph},
		{"src out of range", Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 8, Dst: 0}}}, fault.ErrBadGraph},
		{"negative dst", Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 0, Dst: -1}}}, fault.ErrBadGraph},
		{"remove missing", Batch{Ops: []Mutation{{Op: OpRemoveEdge, Src: 0, Dst: 0}}}, fault.ErrBadGraph},
		{"bad feature width", Batch{Ops: []Mutation{{Op: OpAddVertex, Features: []float32{1}}}}, fault.ErrBadShape},
		{"unknown op", Batch{Ops: []Mutation{{Op: OpKind(99)}}}, fault.ErrBadGraph},
	}
	for _, tc := range cases {
		if err := d.Apply(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Removing a self-loop that doesn't exist must not find phantom base
	// occurrences (vertex 0 may or may not have edges in ErdosRenyi; make
	// sure the specific missing pair reports cleanly).
	if err := d.Apply(Batch{Ops: []Mutation{{Op: OpRemoveEdge, Src: 7, Dst: 7}}}); err != nil && !errors.Is(err, fault.ErrBadGraph) {
		t.Errorf("missing self-loop: got %v", err)
	}
}

func TestVertexAddGrowsGraph(t *testing.T) {
	d, _ := seedDyn(t, 64, 256, 2, Config{CompactThreshold: math.Inf(1)})
	if err := d.Apply(Batch{Ops: []Mutation{{Op: OpAddVertex, Features: []float32{1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Vertices != 65 {
		t.Fatalf("after vertex add: vertices=%d", s.Vertices)
	}
}

// A snapshot shares the live feature rows instead of copying them, so no
// later mutation may change what it holds: not an add_vertex batch that
// appends in place, not a failing batch whose undo truncates rows that a
// later batch then rewrites, and not a compaction.
func TestSnapshotFeaturesSurviveMutation(t *testing.T) {
	d, _ := seedDyn(t, 64, 256, 2, Config{CompactThreshold: math.Inf(1)})
	addVertex := func(v float32) Mutation {
		return Mutation{Op: OpAddVertex, Features: []float32{v, -v}}
	}
	// The first append reallocates; later ones fit in the spare capacity,
	// so they write the array a snapshot shares.
	if err := d.Apply(Batch{Ops: []Mutation{addVertex(1)}}); err != nil {
		t.Fatal(err)
	}
	var snaps, want []*tensor.Matrix
	take := func() {
		t.Helper()
		_, x, err := d.View()
		if err != nil {
			t.Fatal(err)
		}
		snaps, want = append(snaps, x), append(want, x.Clone())
	}
	check := func(step string) {
		t.Helper()
		for i, x := range snaps {
			if !x.Equal(want[i]) {
				t.Fatalf("after %s: snapshot %d changed", step, i)
			}
		}
	}
	take()
	if err := d.Apply(Batch{Ops: []Mutation{addVertex(2), addVertex(3)}}); err != nil {
		t.Fatal(err)
	}
	check("an add_vertex batch")

	take()
	failing := Batch{Ops: []Mutation{addVertex(4), addVertex(5), {Op: OpAddEdge, Src: 0, Dst: 1 << 20}}}
	if err := d.Apply(failing); err == nil {
		t.Fatal("out-of-range edge applied")
	}
	check("an undone add_vertex batch")
	if err := d.Apply(Batch{Ops: []Mutation{addVertex(6), addVertex(7)}}); err != nil {
		t.Fatal(err)
	}
	check("an add_vertex batch over the undone rows")

	take()
	if err := d.Apply(Batch{Ops: []Mutation{{Op: OpAddEdge, Src: 1, Dst: 2}, addVertex(8)}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	take()
	if err := d.Apply(Batch{Ops: []Mutation{addVertex(9)}}); err != nil {
		t.Fatal(err)
	}
	check("a compaction")
	if got := snaps[len(snaps)-1].Rows; got != 64+6 {
		t.Fatalf("post-compaction snapshot has %d rows, want %d", got, 64+6)
	}
}

func TestCompactionIsStructureNeutral(t *testing.T) {
	d, ref := seedDyn(t, 128, 512, 2, Config{CompactThreshold: math.Inf(1)})
	b := Batch{Ops: []Mutation{
		{Op: OpAddEdge, Src: 1, Dst: 2},
		{Op: OpAddEdge, Src: 3, Dst: 100},
		{Op: OpAddVertex, Features: []float32{5, 6}},
		{Op: OpAddEdge, Src: 128, Dst: 0},
	}}
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	ref.apply(t, b)
	statsBefore := d.Stats()
	if statsBefore.DeltaAdded == 0 {
		t.Fatal("expected pending overlay before compaction")
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.DeltaAdded != 0 || s.DeltaRemoved != 0 || s.Compactions != 1 {
		t.Fatalf("overlay not drained: %+v", s)
	}
	if s.Edges != statsBefore.Edges || s.Vertices != statsBefore.Vertices {
		t.Fatalf("compaction changed structure: %+v -> %+v", statsBefore, s)
	}
	got, _, _ := d.View()
	want, _ := ref.build("ref")
	sameCSR(t, got, want)
}

func TestAutoCompactionAtThreshold(t *testing.T) {
	d, ref := seedDyn(t, 32, 100, 2, Config{CompactThreshold: 0.10})
	// 11 added edges on a 100-edge base crosses the 10% threshold.
	var ops []Mutation
	for i := 0; i < 11; i++ {
		ops = append(ops, Mutation{Op: OpAddEdge, Src: int32(i), Dst: int32((i + 1) % 32)})
	}
	b := Batch{Ops: ops}
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	ref.apply(t, b)
	s := d.Stats()
	if s.Compactions != 1 || s.DeltaAdded != 0 {
		t.Fatalf("expected auto-compaction: %+v", s)
	}
	if s.BaseEdges != 111 {
		t.Fatalf("base edges after compaction: %d, want 111", s.BaseEdges)
	}
	got, _, _ := d.View()
	want, _ := ref.build("ref")
	sameCSR(t, got, want)
}

func TestForwardOnViewMatchesFromScratch(t *testing.T) {
	// The end-to-end bit-identity property the serving soak relies on:
	// fp32 inference over the merged snapshot is byte-identical to
	// inference over a from-scratch rebuild of the same edge multiset.
	d, ref := seedDyn(t, 48, 192, 8, Config{CompactThreshold: math.Inf(1)})
	model, err := gnn.NewModel("gcn", []int{8, 16, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	batches := []Batch{
		{Ops: []Mutation{{Op: OpAddEdge, Src: 1, Dst: 2}, {Op: OpAddEdge, Src: 2, Dst: 1}}},
		{Ops: []Mutation{{Op: OpAddVertex, Features: []float32{1, 0, 1, 0, 1, 0, 1, 0}}, {Op: OpAddEdge, Src: 48, Dst: 3}}},
		{Ops: []Mutation{{Op: OpRemoveEdge, Src: 1, Dst: 2}}},
	}
	for i, b := range batches {
		if err := d.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		ref.apply(t, b)
		g, x, err := d.View()
		if err != nil {
			t.Fatal(err)
		}
		wg, wx := ref.build("ref")
		got, err := gnn.Forward(model, g, x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gnn.Forward(model, wg, wx)
		if err != nil {
			t.Fatal(err)
		}
		if !got[len(got)-1].Equal(want[len(want)-1]) {
			t.Fatalf("batch %d: inference over View diverges from from-scratch rebuild", i)
		}
	}
}

func TestSamplerDeterministicAndSeedSensitive(t *testing.T) {
	g := graph.ErdosRenyi(200, 4000, 3)
	s := Sampler{Fanout: 5, Seed: 42}
	a, err := s.Sample(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Sample(g, 2)
	for li := range a {
		sameCSR(t, a[li], b[li])
	}
	// Layers draw independent subsets (overwhelmingly likely to differ on
	// a 200-vertex graph with avg degree 20).
	if sameEdges(a[0], a[1]) {
		t.Fatal("layer 0 and layer 1 drew identical samples")
	}
	c, _ := Sampler{Fanout: 5, Seed: 43}.Sample(g, 2)
	if sameEdges(a[0], c[0]) {
		t.Fatal("different seeds drew identical samples")
	}
	// Fanout caps every row; small rows are kept whole.
	for v := 0; v < g.NumVertices(); v++ {
		want := g.InDegree(v)
		if want > 5 {
			want = 5
		}
		if got := a[0].InDegree(v); got != want {
			t.Fatalf("vertex %d: sampled degree %d, want %d", v, got, want)
		}
		row := a[0].InNeighbors(v)
		full := g.InNeighbors(v)
		for _, u := range row {
			if !contains(full, u) {
				t.Fatalf("vertex %d: sampled neighbor %d not in full row", v, u)
			}
		}
	}
	if err := (Sampler{Fanout: 0, Seed: 1}).Validate(); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("fanout 0: got %v", err)
	}
}

func sameEdges(a, b *graph.Graph) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !reflect.DeepEqual(a.InNeighbors(v), b.InNeighbors(v)) {
			return false
		}
	}
	return true
}

func contains(row []int32, u int32) bool {
	for _, x := range row {
		if x == u {
			return true
		}
	}
	return false
}

func TestBatchCodecRoundTrip(t *testing.T) {
	b := Batch{Ops: []Mutation{
		{Op: OpAddEdge, Src: 0, Dst: 99},
		{Op: OpRemoveEdge, Src: 7, Dst: 7},
		{Op: OpAddVertex, Features: []float32{1.5, -2.25, 0}},
		{Op: OpAddVertex, Features: nil},
	}}
	frame, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(b.Ops) {
		t.Fatalf("op count %d != %d", len(got.Ops), len(b.Ops))
	}
	for i, op := range got.Ops {
		want := b.Ops[i]
		if op.Op != want.Op || op.Src != want.Src || op.Dst != want.Dst {
			t.Fatalf("op %d: %+v != %+v", i, op, want)
		}
		if len(op.Features) != len(want.Features) {
			t.Fatalf("op %d: feature len %d != %d", i, len(op.Features), len(want.Features))
		}
		for j := range op.Features {
			if op.Features[j] != want.Features[j] {
				t.Fatalf("op %d feature %d: %v != %v", i, j, op.Features[j], want.Features[j])
			}
		}
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	valid, err := EncodeBatch(Batch{Ops: []Mutation{
		{Op: OpAddEdge, Src: 1, Dst: 2},
		{Op: OpAddVertex, Features: []float32{1, 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XXXX\x01\x00\x00\x00")},
		{"truncated header", valid[:6]},
		{"truncated mid-op", valid[:len(valid)-3]},
		{"negative count", []byte("SCD1\xff\xff\xff\xff")},
		{"huge count truncated", []byte("SCD1\xff\xff\xff\x01")},
		{"trailing garbage", append(append([]byte(nil), valid...), 0)},
		{"negative vertex", []byte("SCD1\x01\x00\x00\x00\x01\xff\xff\xff\xff\x00\x00\x00\x00")},
		{"unknown kind", []byte("SCD1\x01\x00\x00\x00\x63")},
		{"huge feature dim", []byte("SCD1\x01\x00\x00\x00\x03\xff\xff\xff\x01")},
		{"nan feature", []byte("SCD1\x01\x00\x00\x00\x03\x01\x00\x00\x00\x00\x00\xc0\x7f")},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch(tc.data); !errors.Is(err, fault.ErrBadGraph) {
			t.Errorf("%s: got %v, want ErrBadGraph", tc.name, err)
		}
	}
}

// TestBatchGoldenBytes pins SCD1 byte for byte: FuzzMutationDecode's seed
// batch encodes to the bytes the streaming encoder wrote, and those bytes
// decode to a batch that encodes back to them.
func TestBatchGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString("53434431" + "03000000" +
		"01" + "01000000" + "02000000" +
		"02" + "03000000" + "04000000" +
		"03" + "02000000" + "0000003f" + "000080bf")
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeBatch(seedBatch)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encoded %x (err %v), want %x", got, err, want)
	}
	back, err := DecodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := EncodeBatch(back); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("decoded batch re-encodes to %x (err %v)", got, err)
	}
	if _, err := EncodeBatch(Batch{Ops: []Mutation{{Op: 99}}}); !errors.Is(err, fault.ErrBadGraph) {
		t.Fatalf("unknown kind: err = %v, want ErrBadGraph", err)
	}
}

// TestDecodeBatchAllocationBound pins that a frame claiming more ops or
// features than its bytes can hold is refused before the op or feature
// slice exists.
func TestDecodeBatchAllocationBound(t *testing.T) {
	for name, frame := range map[string][]byte{
		"2^20 features in 13 bytes": []byte("SCD1\x01\x00\x00\x00\x03\x00\x00\x10\x00"),
		"2^22 ops in 8 bytes":       []byte("SCD1\x00\x00\x40\x00"),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatch(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, fault.ErrBadGraph) {
			t.Fatalf("%s: err = %v, want ErrBadGraph", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Fatalf("%s: allocated %d bytes before failing", name, d)
		}
	}
}

// Compact re-freezes the overlay into the base CSR. It is also triggered
// automatically when the delta fraction crosses the configured threshold.
// Compaction is structure-neutral: the live edge multiset, and so every
// degree, is unchanged.
func (g *Graph) Compact() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.compactLocked()
}
