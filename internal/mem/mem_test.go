package mem

import "testing"

func TestStreamCycles(t *testing.T) {
	h := DefaultHBM()
	if h.StreamCycles(0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	// 256 KB at 256 B/cycle = 1024 cycles + 100 latency.
	if got := h.StreamCycles(256 << 10); got != 1124 {
		t.Fatalf("StreamCycles = %d, want 1124", got)
	}
	// Sub-burst transfers round up to one burst.
	if got := h.StreamCycles(1); got != 100+0 {
		// 64 bytes / 256 B-per-cycle = 0.25 → int64 truncates to 0.
		t.Fatalf("tiny stream = %d", got)
	}
}

func TestStreamMonotone(t *testing.T) {
	h := DefaultHBM()
	prev := int64(-1)
	for _, n := range []int64{64, 1024, 1 << 20, 1 << 28} {
		c := h.StreamCycles(n)
		if c <= prev {
			t.Fatalf("StreamCycles not monotone at %d", n)
		}
		prev = c
	}
}

func TestGlobalBufferFitsAndPasses(t *testing.T) {
	g := DefaultGlobalBuffer()
	if !g.Fits(4 << 20) {
		t.Fatal("4MB must fit in 4MB")
	}
	if g.Fits(4<<20 + 1) {
		t.Fatal("over-capacity must not fit")
	}
}

func TestGlobalBufferReadCycles(t *testing.T) {
	g := DefaultGlobalBuffer()
	// 32 banks × 16 B = 512 B/cycle.
	if got := g.ReadCycles(512 * 10); got != 10 {
		t.Fatalf("ReadCycles = %d, want 10", got)
	}
	if got := g.ReadCycles(1); got != 1 {
		t.Fatalf("ReadCycles(1) = %d, want 1", got)
	}
}

func TestTrafficAccumulation(t *testing.T) {
	var a Traffic
	a.Add(Traffic{DRAMReadBytes: 10, GBWriteBytes: 5, LocalReadBytes: 3, MACs: 7})
	a.Add(Traffic{DRAMWriteBytes: 2, GBReadBytes: 1, LocalWriteBytes: 4, MACs: 3})
	if a.DRAMBytes() != 12 || a.GBBytes() != 6 || a.LocalBytes() != 7 || a.MACs != 10 {
		t.Fatalf("accumulation wrong: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty traffic string")
	}
}
