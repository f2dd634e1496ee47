// Package noc models the on-package interconnect of the AccelFlow
// processor (paper §V-3): a 2D mesh inside each chiplet (3 cycles/hop,
// 16-byte links) and a fully-connected inter-chiplet network (60 cycles
// by default). Inter-chiplet links are contended resources; intra-mesh
// transfers are modeled by latency plus serialization.
package noc

import (
	"fmt"
	"math"
	"sort"

	"accelflow/internal/config"
	"accelflow/internal/sim"
)

// Node is a network endpoint: a chiplet and mesh coordinates within it.
type Node struct {
	Chiplet int
	X, Y    int
}

// Network computes route latencies and arbitrates inter-chiplet links.
type Network struct {
	k   *sim.Kernel
	cfg *config.Config

	// links[a][b] serializes traffic between chiplet pair (a<b).
	links map[[2]int]*sim.Resource

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

	// Stats for the energy model.
	Messages   uint64
	BytesMoved uint64
	HopCount   uint64
	CrossChip  uint64
}

// NewNetwork builds the link set for the configured chiplet count.
func NewNetwork(k *sim.Kernel, cfg *config.Config) *Network {
	n := &Network{
		k: k, cfg: cfg, links: map[[2]int]*sim.Resource{},
		hop:   cfg.Cycles(cfg.MeshHopCycles),
		cross: cfg.Cycles(cfg.InterChipletCycles),
		// Intra-chiplet: 16B per 1 cycle per link.
		meshBPS: float64(cfg.MeshLinkBytes) * cfg.CPUFreqGHz, // bytes per ns
	}
	for a := 0; a < cfg.Chiplets; a++ {
		for b := a + 1; b < cfg.Chiplets; b++ {
			n.links[[2]int{a, b}] = sim.NewResource(k, fmt.Sprintf("link%d-%d", a, b), 1, sim.FIFO)
		}
	}
	return n
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
// serialization, no contention).
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

// TransferTime returns the uncontended end-to-end time for a message.
func (n *Network) TransferTime(a, b Node, bytes int) sim.Time {
	return n.Latency(a, b) + n.serialization(a, b, bytes)
}

// LinkBusy sums cumulative busy time across the inter-chiplet links.
func (n *Network) LinkBusy() sim.Time {
	var t sim.Time
	// order-insensitive: an integer sum.
	for _, l := range n.links {
		t += l.BusyTime
	}
	return t
}

// LinkCount reports the number of inter-chiplet links.
func (n *Network) LinkCount() int { return len(n.links) }

// Links returns the inter-chiplet link resources in a deterministic
// (chiplet-pair) order, for read-only inspection by the invariant
// checker. Callers must not submit work through them.
func (n *Network) Links() []*sim.Resource {
	keys := make([][2]int, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*sim.Resource, 0, len(keys))
	for _, k := range keys {
		out = append(out, n.links[k])
	}
	return out
}

// Send models a message: latency plus serialization, with inter-chiplet
// messages serializing on the shared pair link. done fires at delivery.
func (n *Network) Send(a, b Node, bytes int, done func()) {
	n.Messages++
	n.BytesMoved += uint64(bytes)
	lat := n.Latency(a, b)
	ser := n.serialization(a, b, bytes)
	if a.Chiplet == b.Chiplet {
		n.HopCount += uint64(meshHops(a, b))
		n.k.After(lat+ser, done)
		return
	}
	n.CrossChip++
	n.HopCount += uint64(edgeHops(a) + edgeHops(b) + 1)
	key := [2]int{a.Chiplet, b.Chiplet}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	link := n.links[key]
	// The link is held for the serialization time; head latency is
	// pipelined on top.
	link.Submit(&sim.Task{
		Hold: ser,
		Done: func() { n.k.After(lat, done) },
	})
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
