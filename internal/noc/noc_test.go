package noc

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/sim"
)

func TestIntraChipletLatency(t *testing.T) {
	cfg := config.Default()
	n := NewNetwork(cfg)
	a := Node{Chiplet: 1, X: 0, Y: 0}
	b := Node{Chiplet: 1, X: 2, Y: 1}
	want := cfg.Cycles(3 * cfg.MeshHopCycles) // 3 hops
	if got := n.Latency(a, b); got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
	if n.Latency(a, a) != 0 {
		t.Error("self latency nonzero")
	}
}

func TestInterChipletLatencyDominates(t *testing.T) {
	cfg := config.Default()
	n := NewNetwork(cfg)
	same := n.Latency(Node{Chiplet: 1, X: 0, Y: 0}, Node{Chiplet: 1, X: 2, Y: 2})
	cross := n.Latency(Node{Chiplet: 0, X: 0, Y: 0}, Node{Chiplet: 1, X: 0, Y: 0})
	if cross <= same {
		t.Errorf("cross-chiplet %v should exceed intra %v", cross, same)
	}
	if cross < cfg.Cycles(cfg.InterChipletCycles) {
		t.Errorf("cross latency %v below the 60-cycle floor", cross)
	}
}

func TestInterChipletLatencyScalesWithConfig(t *testing.T) {
	near := config.Default()
	far := config.Default()
	far.InterChipletCycles = 100
	a := Node{Chiplet: 0}
	b := Node{Chiplet: 1}
	ln := NewNetwork(near).Latency(a, b)
	lf := NewNetwork(far).Latency(a, b)
	if lf-ln != near.Cycles(40) {
		t.Errorf("latency delta = %v, want 40 cycles", lf-ln)
	}
}

func TestTransferTimeSerialization(t *testing.T) {
	cfg := config.Default()
	n := NewNetwork(cfg)
	a := Node{Chiplet: 1, X: 0, Y: 0}
	b := Node{Chiplet: 1, X: 1, Y: 0}
	small := n.TransferTime(a, b, 64)
	big := n.TransferTime(a, b, 64*1024)
	if big <= small {
		t.Error("serialization did not grow with payload")
	}
	// 64KB over 16B*2.4GHz = 38.4 B/ns -> ~1706ns.
	delta := float64(big-small) / float64(sim.Nanosecond)
	if delta < 1500 || delta > 1900 {
		t.Errorf("64KB serialization delta = %vns, want ~1706ns", delta)
	}
}

func TestPlacementDistinctAndStable(t *testing.T) {
	cfg := config.Default()
	p := NewPlacement(cfg)
	seen := map[Node]config.AccelKind{}
	for _, kd := range config.AllAccelKinds() {
		nd := p.AccelNode(kd)
		if nd.Chiplet != cfg.ChipletOf[kd] {
			t.Errorf("%v placed on chiplet %d, config says %d", kd, nd.Chiplet, cfg.ChipletOf[kd])
		}
		if prev, dup := seen[nd]; dup {
			t.Errorf("%v and %v share node %+v", kd, prev, nd)
		}
		seen[nd] = kd
	}
	q := NewPlacement(cfg)
	for _, kd := range config.AllAccelKinds() {
		if p.AccelNode(kd) != q.AccelNode(kd) {
			t.Error("placement not deterministic")
		}
	}
}

func TestPlacementCores(t *testing.T) {
	cfg := config.Default()
	p := NewPlacement(cfg)
	seen := map[Node]bool{}
	for i := 0; i < cfg.Cores; i++ {
		nd := p.CoreNode(i)
		if nd.Chiplet != 0 {
			t.Errorf("core %d on chiplet %d", i, nd.Chiplet)
		}
		if seen[nd] {
			t.Errorf("core %d collides at %+v", i, nd)
		}
		seen[nd] = true
	}
	if p.MemNode().Chiplet != 0 {
		t.Error("memory node off the core chiplet")
	}
}

func TestPlacementSingleChiplet(t *testing.T) {
	cfg := config.Default()
	if err := cfg.ApplyChipletPlan(config.OneChiplet); err != nil {
		t.Fatal(err)
	}
	p := NewPlacement(cfg)
	n := NewNetwork(cfg)
	for _, kd := range config.AllAccelKinds() {
		if p.AccelNode(kd).Chiplet != 0 {
			t.Errorf("%v off chiplet 0 in 1-chiplet plan", kd)
		}
	}
	// All routes intra-chiplet: latency below the inter-chiplet floor.
	l := n.Latency(p.AccelNode(config.TCP), p.AccelNode(config.Cmp))
	if l >= cfg.Cycles(cfg.InterChipletCycles) {
		t.Errorf("1-chiplet route latency %v looks cross-chiplet", l)
	}
}

func TestMoreChipletsMeansLongerRoutes(t *testing.T) {
	avg := func(plan config.ChipletPlan) sim.Time {
		cfg := config.Default()
		if err := cfg.ApplyChipletPlan(plan); err != nil {
			t.Fatal(err)
		}
		p := NewPlacement(cfg)
		n := NewNetwork(cfg)
		var sum sim.Time
		var cnt int
		for _, a := range config.AllAccelKinds() {
			for _, b := range config.AllAccelKinds() {
				if a == b {
					continue
				}
				sum += n.Latency(p.AccelNode(a), p.AccelNode(b))
				cnt++
			}
		}
		return sum / sim.Time(cnt)
	}
	l1 := avg(config.OneChiplet)
	l2 := avg(config.TwoChiplets)
	l6 := avg(config.SixChiplets)
	if !(l1 < l2 && l2 < l6) {
		t.Errorf("average route latency not increasing with chiplets: %v %v %v", l1, l2, l6)
	}
}

// refLatency and refSerialization evaluate the route formulas straight
// from the config, as Latency and serialization did before the network
// kept its per-run constants.
func refLatency(cfg *config.Config, scale float64, a, b Node) sim.Time {
	hop := cfg.Cycles(cfg.MeshHopCycles)
	var t sim.Time
	if a.Chiplet == b.Chiplet {
		t = sim.Time(meshHops(a, b)) * hop
	} else {
		t = sim.Time(edgeHops(a))*hop + cfg.Cycles(cfg.InterChipletCycles) + sim.Time(edgeHops(b))*hop
	}
	if scale != 1 {
		t = sim.Time(float64(t) * scale)
	}
	return t
}

func refSerialization(cfg *config.Config, a, b Node, bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	t := sim.FromNanos(float64(bytes) / (float64(cfg.MeshLinkBytes) * cfg.CPUFreqGHz))
	if a.Chiplet != b.Chiplet {
		if cross := sim.FromNanos(float64(bytes) / cfg.InterChipletGBs); cross > t {
			t = cross
		}
	}
	return t
}

// TestHoistedRouteConstantsMatchConfig holds the network's per-run
// constants to the config formulas they replace, for every pair of
// placed nodes (each accelerator, core 0, memory): at the default
// config, at each chiplet plan and inter-chiplet latency sens2 sweeps,
// and under fault-window latency scales.
func TestHoistedRouteConstantsMatchConfig(t *testing.T) {
	type setup struct {
		plan config.ChipletPlan // 0 keeps the default plan
		lat  int                // 0 keeps the default latency
	}
	setups := []setup{{}}
	for _, plan := range []config.ChipletPlan{config.TwoChiplets, config.SixChiplets} {
		for _, lat := range []int{20, 60, 100} {
			setups = append(setups, setup{plan, lat})
		}
	}
	sizes := []int{0, 1, 15, 64, 1000, 2048 + 8, 64 * 1024}
	for _, s := range setups {
		cfg := config.Default()
		if s.plan != 0 {
			if err := cfg.ApplyChipletPlan(s.plan); err != nil {
				t.Fatal(err)
			}
		}
		if s.lat != 0 {
			cfg.InterChipletCycles = s.lat
		}
		p := NewPlacement(cfg)
		nodes := []Node{p.CoreNode(0), p.MemNode()}
		for _, kd := range config.AllAccelKinds() {
			nodes = append(nodes, p.AccelNode(kd))
		}
		n := NewNetwork(cfg)
		for _, scale := range []float64{1, 1.5, 2.7, 1} {
			n.SetLatencyScale(scale)
			for _, a := range nodes {
				for _, b := range nodes {
					if got, want := n.Latency(a, b), refLatency(cfg, scale, a, b); got != want {
						t.Fatalf("plan %v, %d cycles, scale %v: Latency(%+v, %+v) = %v, want %v", s.plan, s.lat, scale, a, b, got, want)
					}
					for _, bytes := range sizes {
						want := refLatency(cfg, scale, a, b) + refSerialization(cfg, a, b, bytes)
						if got := n.TransferTime(a, b, bytes); got != want {
							t.Fatalf("plan %v, %d cycles, scale %v: TransferTime(%+v, %+v, %d) = %v, want %v", s.plan, s.lat, scale, a, b, bytes, got, want)
						}
					}
				}
			}
		}
	}
}
