// Package mem models the parts of the memory hierarchy that AccelFlow's
// orchestration interacts with: the shared DRAM controllers (bandwidth
// contention for payload spills and RELIEF's through-memory data
// movement), per-accelerator address-translation (TLB + IOMMU walks per
// §V-3), and page-fault exceptions that force CPU fallbacks (§VII-B.6).
package mem

import (
	"fmt"

	"accelflow/internal/config"
	"accelflow/internal/sim"
)

// Memory models the DRAM controllers as parallel bandwidth servers.
// A transfer occupies one controller for latency + bytes/bandwidth.
type Memory struct {
	cfg   *config.Config
	ctrls []*sim.Resource
	next  int

	// Stats.
	Transfers  uint64
	BytesMoved uint64
}

// NewMemory builds the controller pool from the config.
func NewMemory(k *sim.Kernel, cfg *config.Config) *Memory {
	m := &Memory{cfg: cfg}
	for i := 0; i < cfg.MemCtrls; i++ {
		m.ctrls = append(m.ctrls, sim.NewResource(k, fmt.Sprintf("memctrl%d", i), 1, sim.FIFO))
	}
	return m
}

// transferHold computes the controller occupancy for a transfer.
func (m *Memory) transferHold(bytes int) sim.Time {
	bw := m.cfg.MemGBsPerCtrl // GB/s == bytes/ns
	ser := sim.FromNanos(float64(bytes) / bw)
	return m.cfg.DRAMLatency + ser
}

// Transfer moves bytes to or from DRAM through the least-loaded
// controller and calls done when complete.
func (m *Memory) Transfer(bytes int, done func()) {
	if bytes <= 0 {
		bytes = 1
	}
	m.Transfers++
	m.BytesMoved += uint64(bytes)
	c := m.pick()
	c.Do(m.transferHold(bytes), done)
}

func (m *Memory) pick() *sim.Resource {
	best := m.ctrls[m.next%len(m.ctrls)]
	m.next++
	for _, c := range m.ctrls {
		if c.QueueLen()+c.InService() < best.QueueLen()+best.InService() {
			best = c
		}
	}
	return best
}

// BusyTime sums cumulative busy time across the DRAM controllers.
func (m *Memory) BusyTime() sim.Time {
	var t sim.Time
	for _, c := range m.ctrls {
		t += c.BusyTime
	}
	return t
}

// CtrlCount reports the number of DRAM controllers.
func (m *Memory) CtrlCount() int { return len(m.ctrls) }

// Ctrls returns the controller resources in index order, for
// read-only inspection by the invariant checker. Callers must not
// submit work through them.
func (m *Memory) Ctrls() []*sim.Resource {
	return append([]*sim.Resource(nil), m.ctrls...)
}

// TLB models one accelerator's address-translation cache backed by the
// shared IOMMU (PCIe ATS, §IV-A). Accesses hit with the configured
// probability; misses cost an IOMMU walk; a small fraction of
// invocations page-fault and must be handled by the OS on a core.
type TLB struct {
	cfg *config.Config
	rng *sim.RNG

	Accesses   uint64
	Misses     uint64
	PageFaults uint64
}

// NewTLB returns a TLB with its own RNG stream.
func NewTLB(cfg *config.Config, rng *sim.RNG) *TLB {
	return &TLB{cfg: cfg, rng: rng}
}

// Access draws one translation: zero extra time on a hit, an IOMMU walk
// on a miss.
func (t *TLB) Access() sim.Time {
	t.Accesses++
	if t.rng.Bool(t.cfg.TLBHitRate) {
		return 0
	}
	t.Misses++
	return t.cfg.IOMMUWalk
}

// PageFault draws whether this invocation faults (OS handling cost is
// charged by the caller, which must involve a CPU core).
func (t *TLB) PageFault() bool {
	if t.rng.Bool(t.cfg.PageFaultRate) {
		t.PageFaults++
		return true
	}
	return false
}
