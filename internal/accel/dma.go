package accel

import (
	"accelflow/internal/config"
	"accelflow/internal/mem"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
)

// DMAPool models the shared A-DMA engines (Table III: 10 engines).
// Output dispatchers and cores acquire an engine to move queue entries
// between accelerators, or between an accelerator and memory.
type DMAPool struct {
	k    *sim.Kernel
	cfg  *config.Config
	net  *noc.Network
	mem  *mem.Memory
	pool *sim.Resource

	// freeJoin recycles transfer records, so a steady-state transfer,
	// with or without a spill leg, allocates nothing.
	freeJoin *dmaJoin

	Transfers  uint64
	BytesMoved uint64
}

// dmaJoin is one pooled transfer: the inline leg through an A-DMA
// engine and, when the payload spills, the leg through memory, joined
// before the caller's continuation runs. inlineFn and spillFn are
// bound once, at allocation.
type dmaJoin struct {
	d    *DMAPool
	sp   *obs.Span
	t0   sim.Time
	hold sim.Time
	legs int
	done func()
	next *dmaJoin

	inlineFn, spillFn func()
}

// inline ends the engine leg: the engine-wait and NoC segments.
func (n *dmaJoin) inline() {
	now := n.d.k.Now()
	n.sp.Seg(obs.SegQueue, "adma", n.t0, now-n.hold)
	n.sp.Seg(obs.SegNoC, "noc", now-n.hold, now)
	n.finish()
}

// spill ends the memory leg.
func (n *dmaJoin) spill() {
	n.sp.Seg(obs.SegDMA, "dram", n.t0, n.d.k.Now())
	n.finish()
}

// finish counts one leg in. After the last it recycles the record
// before continuing (done may start another transfer and reuse it —
// nothing below touches n again).
func (n *dmaJoin) finish() {
	n.legs--
	if n.legs > 0 {
		return
	}
	d := n.d
	done := n.done
	n.sp, n.done = nil, nil
	n.next = d.freeJoin
	d.freeJoin = n
	if done != nil {
		done()
	}
}

// NewDMAPool builds the engine pool.
func NewDMAPool(k *sim.Kernel, cfg *config.Config, net *noc.Network, memory *mem.Memory) *DMAPool {
	return &DMAPool{
		k: k, cfg: cfg, net: net, mem: memory,
		pool: sim.NewResource(k, "adma", cfg.ADMAEngines, sim.FIFO),
	}
}

// Transfer moves a queue entry (trace + inline data up to 2KB) from src
// to dst, spilling payload beyond the inline limit through memory via
// the entry's Memory Pointer (§IV-A). done fires when both the inline
// and spill parts have arrived. sp, when non-nil, receives the
// engine-wait, NoC-occupancy, and spill-DMA segments.
func (d *DMAPool) Transfer(src, dst noc.Node, bytes int, traceBytes int, sp *obs.Span, done func()) {
	d.Transfers++
	d.BytesMoved += uint64(bytes + traceBytes)
	inline := bytes
	if inline > d.cfg.InlineDataBytes {
		inline = d.cfg.InlineDataBytes
	}
	spill := bytes - inline
	t0 := d.k.Now()
	// Inline part: the engine holds for the on-package route time.
	hold := d.net.TransferTime(src, dst, inline+traceBytes)
	n := d.freeJoin
	if n == nil {
		n = &dmaJoin{d: d}
		n.inlineFn, n.spillFn = n.inline, n.spill
	} else {
		d.freeJoin = n.next
	}
	n.sp, n.t0, n.hold, n.done = sp, t0, hold, done
	n.legs = 1
	if spill > 0 {
		n.legs = 2
	}
	d.pool.Do(hold, n.inlineFn)
	if spill > 0 {
		// Spill part: moved through the cache-coherent LLC/memory path.
		d.mem.Transfer(spill, n.spillFn)
	}
}

// Busy reports cumulative engine busy time (utilization sampling).
func (d *DMAPool) Busy() sim.Time { return d.pool.BusyTime }

// Engines reports the number of live A-DMA engines in the pool.
func (d *DMAPool) Engines() int { return d.pool.Servers }

// SetOffline holds n engines out of service (fault injection: removed
// engines; 0 restores the pool). Floored at one live engine; in-flight
// transfers finish normally.
func (d *DMAPool) SetOffline(n int) { d.pool.SetOffline(n) }

// Resource exposes the underlying engine pool for read-only inspection
// (the invariant checker's per-resource suite). Callers must not
// submit work through it.
func (d *DMAPool) Resource() *sim.Resource { return d.pool }
