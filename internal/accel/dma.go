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

	// freeDone recycles the inline-leg completion records, so the
	// common no-spill transfer allocates nothing.
	freeDone *dmaDone

	Transfers  uint64
	BytesMoved uint64
}

// dmaDone is one pooled inline-leg completion: the engine-wait and
// NoC segments plus the caller's continuation, with fn bound once.
type dmaDone struct {
	d    *DMAPool
	sp   *obs.Span
	t0   sim.Time
	hold sim.Time
	done func()
	next *dmaDone
	fn   func()
}

// run extracts its fields, recycles the record (done may start another
// transfer and reuse it — nothing below touches n again), then records
// the segments and continues.
func (n *dmaDone) run() {
	d := n.d
	sp := n.sp
	t0, hold := n.t0, n.hold
	done := n.done
	n.sp, n.done = nil, nil
	n.next = d.freeDone
	d.freeDone = n
	now := d.k.Now()
	sp.Seg(obs.SegQueue, "adma", t0, now-hold)
	sp.Seg(obs.SegNoC, "noc", now-hold, now)
	if done != nil {
		done()
	}
}

// inlineDone returns a pooled completion for an inline-only transfer
// whose engine hold starts now.
func (d *DMAPool) inlineDone(sp *obs.Span, t0, hold sim.Time, done func()) func() {
	n := d.freeDone
	if n == nil {
		n = &dmaDone{d: d}
		n.fn = n.run
	} else {
		d.freeDone = n.next
	}
	n.sp = sp
	n.t0, n.hold = t0, hold
	n.done = done
	return n.fn
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
	if spill == 0 {
		// Common case (payload fits the 2KB queue entry): no join
		// counter needed — the inline leg is the only leg.
		d.pool.Do(hold, d.inlineDone(sp, t0, hold, done))
		return
	}
	outstanding := 2
	finish := func() {
		outstanding--
		if outstanding == 0 && done != nil {
			done()
		}
	}
	d.pool.Do(hold, func() {
		now := d.k.Now()
		sp.Seg(obs.SegQueue, "adma", t0, now-hold)
		sp.Seg(obs.SegNoC, "noc", now-hold, now)
		finish()
	})
	// Spill part: moved through the cache-coherent LLC/memory path.
	d.mem.Transfer(spill, func() {
		sp.Seg(obs.SegDMA, "dram", t0, d.k.Now())
		finish()
	})
}

// Utilization reports engine-pool utilization.
func (d *DMAPool) Utilization(elapsed sim.Time) float64 { return d.pool.Utilization(elapsed) }

// QueueLen reports transfers waiting for an engine.
func (d *DMAPool) QueueLen() int { return d.pool.QueueLen() }

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
