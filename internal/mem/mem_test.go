package mem

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/sim"
)

func TestMemoryTransferTiming(t *testing.T) {
	k := sim.NewKernel()
	cfg := config.Default()
	m := NewMemory(k, cfg)
	var done sim.Time
	m.Transfer(102400, func() { done = k.Now() }) // 100KB at 102.4GB/s = 1000ns + 80ns latency
	k.Run()
	want := cfg.DRAMLatency + sim.FromNanos(1000)
	if done != want {
		t.Errorf("transfer completed at %v, want %v", done, want)
	}
	if m.Transfers != 1 || m.BytesMoved != 102400 {
		t.Errorf("stats = %d transfers / %d bytes", m.Transfers, m.BytesMoved)
	}
}

func TestMemoryParallelControllers(t *testing.T) {
	k := sim.NewKernel()
	cfg := config.Default()
	m := NewMemory(k, cfg)
	finished := 0
	// Four controllers: four equal transfers should all finish together.
	for i := 0; i < 4; i++ {
		m.Transfer(102400, func() { finished++ })
	}
	k.RunUntil(cfg.DRAMLatency + sim.FromNanos(1000))
	if finished != 4 {
		t.Errorf("%d transfers done in one service time, want 4 (parallel ctrls)", finished)
	}
}

func TestMemoryContention(t *testing.T) {
	k := sim.NewKernel()
	cfg := config.Default()
	m := NewMemory(k, cfg)
	var last sim.Time
	// 8 transfers over 4 controllers: two serialized per controller.
	for i := 0; i < 8; i++ {
		m.Transfer(102400, func() { last = k.Now() })
	}
	k.Run()
	single := cfg.DRAMLatency + sim.FromNanos(1000)
	if last != 2*single {
		t.Errorf("last transfer at %v, want %v", last, 2*single)
	}
}

func TestMemoryZeroBytes(t *testing.T) {
	k := sim.NewKernel()
	m := NewMemory(k, config.Default())
	ran := false
	m.Transfer(0, func() { ran = true })
	k.Run()
	if !ran {
		t.Error("zero-byte transfer never completed")
	}
}

func TestTLBHitRate(t *testing.T) {
	cfg := config.Default()
	tlb := NewTLB(cfg, sim.NewRNG(1))
	var extra sim.Time
	const n = 100000
	for i := 0; i < n; i++ {
		extra += tlb.Access()
	}
	if tlb.Accesses != n {
		t.Fatalf("accesses = %d, want %d", tlb.Accesses, n)
	}
	miss := float64(tlb.Misses) / n
	want := 1 - cfg.TLBHitRate
	if miss < want*0.8 || miss > want*1.2 {
		t.Errorf("miss rate = %v, want ~%v", miss, want)
	}
	if extra != sim.Time(tlb.Misses)*cfg.IOMMUWalk {
		t.Error("miss cost accounting inconsistent")
	}
}

func TestTLBPageFaultRare(t *testing.T) {
	cfg := config.Default()
	tlb := NewTLB(cfg, sim.NewRNG(2))
	faults := 0
	const n = 2_000_000
	for i := 0; i < n; i++ {
		if tlb.PageFault() {
			faults++
		}
	}
	rate := float64(faults) / n
	if rate > cfg.PageFaultRate*3 {
		t.Errorf("page fault rate %v too high (cfg %v)", rate, cfg.PageFaultRate)
	}
	if uint64(faults) != tlb.PageFaults {
		t.Error("fault counter mismatch")
	}
}
