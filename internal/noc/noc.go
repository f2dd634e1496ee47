// Package noc models the on-package interconnect of the AccelFlow
// processor (paper §V-3): a 2D mesh inside each chiplet (3 cycles/hop,
// 16-byte links) and a fully-connected inter-chiplet network (60 cycles
// by default). A message costs route latency plus serialization on the
// narrowest link of its path; the contended resource that carries it is
// the A-DMA engine holding for that time (accel.DMAPool), not the link.
package noc

import (
	"math"

	"accelflow/internal/config"
	"accelflow/internal/sim"
)

// Node is a network endpoint: a chiplet and mesh coordinates within it.
type Node struct {
	Chiplet int
	X, Y    int
}

// Network computes route latencies and transfer times.
type Network struct {
	cfg *config.Config

	// hop and cross are the mesh-hop and inter-chiplet head latencies,
	// and meshBPS the mesh link's bytes per ns; each is computed once,
	// at construction, with the expression Latency and serialization
	// would otherwise evaluate per message. The config fields behind
	// them are fixed once a network is built.
	hop, cross sim.Time
	meshBPS    float64

	// latScale multiplies head latency during a fault window (link
	// degradation). Zero means unset and is treated as 1; the scale-1
	// path avoids float math entirely so the default is bit-exact.
	latScale float64
}

// NewNetwork builds the network for the configured chiplet map.
func NewNetwork(cfg *config.Config) *Network {
	return &Network{
		cfg:   cfg,
		hop:   cfg.Cycles(cfg.MeshHopCycles),
		cross: cfg.Cycles(cfg.InterChipletCycles),
		// Intra-chiplet: 16B per 1 cycle per link.
		meshBPS: float64(cfg.MeshLinkBytes) * cfg.CPUFreqGHz, // bytes per ns
	}
}

// meshHops is the Manhattan distance between two nodes in one chiplet.
func meshHops(a, b Node) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// edgeHops approximates the mesh distance from a node to its chiplet's
// inter-chiplet port (placed at the origin).
func edgeHops(a Node) int { return a.X + a.Y }

// SetLatencyScale sets the head-latency multiplier (fault injection:
// degraded links). Values <= 0 and exactly 1 restore the exact
// integer-arithmetic default path.
func (n *Network) SetLatencyScale(f float64) {
	if f <= 0 {
		f = 1
	}
	n.latScale = f
}

// LatencyScale reports the active multiplier (1 when unset).
func (n *Network) LatencyScale() float64 {
	if n.latScale == 0 {
		return 1
	}
	return n.latScale
}

// Latency returns the head latency of a message from a to b (no
// serialization).
func (n *Network) Latency(a, b Node) sim.Time {
	hop := n.hop
	var t sim.Time
	if a.Chiplet == b.Chiplet {
		t = sim.Time(meshHops(a, b)) * hop
	} else {
		t = sim.Time(edgeHops(a))*hop + n.cross + sim.Time(edgeHops(b))*hop
	}
	if n.latScale != 0 && n.latScale != 1 {
		t = sim.Time(float64(t) * n.latScale)
	}
	return t
}

// serialization returns the time the payload occupies the narrowest
// link on the path.
func (n *Network) serialization(a, b Node, bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	t := sim.FromNanos(float64(bytes) / n.meshBPS)
	if a.Chiplet != b.Chiplet {
		interBPS := n.cfg.InterChipletGBs // GB/s == bytes/ns
		cross := sim.FromNanos(float64(bytes) / interBPS)
		if cross > t {
			t = cross
		}
	}
	return t
}

// TransferTime returns the end-to-end time for a message: head
// latency plus serialization.
func (n *Network) TransferTime(a, b Node, bytes int) sim.Time {
	return n.Latency(a, b) + n.serialization(a, b, bytes)
}

// Placement assigns mesh coordinates to the accelerators of each
// chiplet in a compact square, and to cores on chiplet 0. This gives
// deterministic, plausible hop counts.
type Placement struct {
	cfg *config.Config
	// accelNode[k] is the node of accelerator kind k.
	accelNode [config.NumAccelKinds]Node
	coreSide  int
}

// NewPlacement computes the layout for the configured chiplet map.
func NewPlacement(cfg *config.Config) *Placement {
	p := &Placement{cfg: cfg}
	p.coreSide = int(math.Ceil(math.Sqrt(float64(cfg.Cores))))
	// Accelerators are laid out per chiplet in registration order.
	idxInChiplet := map[int]int{}
	for k := config.AccelKind(0); k < config.NumAccelKinds; k++ {
		ch := cfg.ChipletOf[k]
		i := idxInChiplet[ch]
		idxInChiplet[ch]++
		side := 3 // accelerator chiplets are small meshes
		p.accelNode[k] = Node{Chiplet: ch, X: i % side, Y: i / side}
		if ch == 0 {
			// On the core chiplet, accelerators sit at the mesh edge
			// beyond the core array.
			p.accelNode[k] = Node{Chiplet: 0, X: p.coreSide, Y: i}
		}
	}
	return p
}

// AccelNode returns the node of an accelerator kind.
func (p *Placement) AccelNode(k config.AccelKind) Node { return p.accelNode[k] }

// CoreNode returns the node of a core by index.
func (p *Placement) CoreNode(i int) Node {
	return Node{Chiplet: 0, X: i % p.coreSide, Y: i / p.coreSide}
}

// MemNode returns the node representing the memory-controller edge of
// the core chiplet.
func (p *Placement) MemNode() Node { return Node{Chiplet: 0, X: 0, Y: p.coreSide} }
