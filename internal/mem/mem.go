// Package mem models the memory hierarchy shared by every accelerator in the
// comparison: an HBM off-chip channel (the role Ramulator plays in the
// paper's setup, §VI), a multi-bank global buffer, and the traffic counters
// the energy model consumes (Fig. 15).
package mem

import "fmt"

// HBM is a bandwidth/latency model of the off-chip memory. The paper
// configures Ramulator as HBM with 256 GB/s; at the 1 GHz design clock that
// is 256 bytes per cycle.
type HBM struct {
	// BytesPerCycle is the sustained bandwidth (256 for the paper config).
	BytesPerCycle float64
	// BurstLatency is the fixed access latency of one burst in cycles.
	BurstLatency int64
	// BurstBytes is the transfer granularity; short transfers round up.
	BurstBytes int64
}

// DefaultHBM returns the §VI configuration: 256 GB/s @ 1 GHz, 64 B bursts,
// 100-cycle access latency.
func DefaultHBM() HBM {
	return HBM{BytesPerCycle: 256, BurstLatency: 100, BurstBytes: 64}
}

// StreamCycles returns the cycles to stream n bytes assuming full pipelining
// of bursts: one leading latency plus bandwidth-limited transfer.
func (h HBM) StreamCycles(n int64) int64 {
	if n <= 0 {
		return 0
	}
	bursts := (n + h.BurstBytes - 1) / h.BurstBytes
	transfer := float64(bursts*h.BurstBytes) / h.BytesPerCycle
	return h.BurstLatency + int64(transfer)
}

// GlobalBuffer is the multi-bank on-chip SRAM holding graph data, features,
// and weights (4 MB in the §VII-A configuration).
type GlobalBuffer struct {
	CapacityBytes int64
	Banks         int
	// PortBytesPerCycle is the per-bank port width.
	PortBytesPerCycle int64
}

// DefaultGlobalBuffer returns the §VII-A configuration: 4 MB, 32 banks,
// 16 B/cycle ports.
func DefaultGlobalBuffer() GlobalBuffer {
	return GlobalBuffer{CapacityBytes: 4 << 20, Banks: 32, PortBytesPerCycle: 16}
}

// Fits reports whether a working set fits on chip.
func (g GlobalBuffer) Fits(workingSet int64) bool {
	return workingSet <= g.CapacityBytes
}

// ReadCycles returns the cycles to read n bytes assuming even bank striping.
func (g GlobalBuffer) ReadCycles(n int64) int64 {
	bw := int64(g.Banks) * g.PortBytesPerCycle
	if bw <= 0 {
		bw = 1
	}
	return (n + bw - 1) / bw
}

// Traffic accumulates the event counts that determine energy (Fig. 15) and
// the DRAM/global-buffer cycle costs. All byte counts are totals across the
// run; MACs count scalar multiply-accumulates.
type Traffic struct {
	DRAMReadBytes  int64
	DRAMWriteBytes int64
	GBReadBytes    int64
	GBWriteBytes   int64
	// LocalBytes counts register-file / local-buffer traffic: SCALE's
	// intermediate reuse trades GB/DRAM traffic for local traffic
	// (the 5.72× local-buffer energy in §VII-G).
	LocalReadBytes  int64
	LocalWriteBytes int64
	MACs            int64
}

// Add accumulates o into t.
func (t *Traffic) Add(o Traffic) {
	t.DRAMReadBytes += o.DRAMReadBytes
	t.DRAMWriteBytes += o.DRAMWriteBytes
	t.GBReadBytes += o.GBReadBytes
	t.GBWriteBytes += o.GBWriteBytes
	t.LocalReadBytes += o.LocalReadBytes
	t.LocalWriteBytes += o.LocalWriteBytes
	t.MACs += o.MACs
}

// DRAMBytes returns total off-chip traffic.
func (t Traffic) DRAMBytes() int64 { return t.DRAMReadBytes + t.DRAMWriteBytes }

// GBBytes returns total global-buffer traffic.
func (t Traffic) GBBytes() int64 { return t.GBReadBytes + t.GBWriteBytes }

// LocalBytes returns total local-buffer/register traffic.
func (t Traffic) LocalBytes() int64 { return t.LocalReadBytes + t.LocalWriteBytes }

// String summarizes the traffic in MB.
func (t Traffic) String() string {
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	return fmt.Sprintf("Traffic(DRAM=%.1fMB GB=%.1fMB local=%.1fMB MACs=%d)",
		mb(t.DRAMBytes()), mb(t.GBBytes()), mb(t.LocalBytes()), t.MACs)
}
