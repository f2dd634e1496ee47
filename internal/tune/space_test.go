package tune

import (
	"strings"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/sim"
)

func mustBuild(t *testing.T, spec SpaceSpec) *Space {
	t.Helper()
	sp, err := spec.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sp
}

func TestSpaceBuildRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec SpaceSpec
		want string
	}{
		{"empty", SpaceSpec{}, "no dimensions"},
		{"bad plan", SpaceSpec{Chiplets: []int{5}}, "chiplet plan"},
		{"zero pes", SpaceSpec{PEs: []int{0}}, "pes level"},
		{"bad policy", SpaceSpec{Policies: []string{"fifo"}}, "unknown policy"},
		{"bad kind", SpaceSpec{PEMix: map[string][]int{"Nope": {4}}}, "accelerator kind"},
		{"zero mix", SpaceSpec{PEMix: map[string][]int{"TCP": {0}}}, "peMix"},
		{"empty mix", SpaceSpec{PEMix: map[string][]int{"TCP": {}}}, "peMix[TCP] lists no levels"},
		{"zero queue", SpaceSpec{QueueDepths: []int{0}}, "queue depth"},
		{"zero timeout", SpaceSpec{TCPTimeoutUs: []float64{0}}, "tcp timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSpaceKeyAndStart(t *testing.T) {
	sp := mustBuild(t, SpaceSpec{
		Chiplets: []int{2, 4},
		PEs:      []int{8, 4},
		Policies: []string{"accelflow", "relief"},
	})
	start := sp.Start()
	if got, want := sp.Key(start), "chiplets=2,pes=8,policy=accelflow"; got != want {
		t.Fatalf("Key(start) = %q, want %q", got, want)
	}
	if got, want := sp.Key([]int{1, 1, 1}), "chiplets=4,pes=4,policy=relief"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

func TestSpaceMaterializeAppliesDims(t *testing.T) {
	sp := mustBuild(t, SpaceSpec{
		Chiplets:     []int{2, 4},
		PEs:          []int{8, 12},
		PEMix:        map[string][]int{"TCP": {8, 16}},
		Policies:     []string{"accelflow", "relief"},
		QueueDepths:  []int{64, 128},
		TCPTimeoutUs: []float64{10000, 5000},
	})
	cfg, pol, err := sp.Materialize([]int{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if cfg.Chiplets != 4 {
		t.Errorf("Chiplets = %d, want 4", cfg.Chiplets)
	}
	if cfg.PEsPerAccel != 12 {
		t.Errorf("PEsPerAccel = %d, want 12", cfg.PEsPerAccel)
	}
	if got := cfg.PEsFor(config.TCP); got != 16 {
		t.Errorf("PEsFor(TCP) = %d, want 16", got)
	}
	if got := cfg.PEsFor(config.Ser); got != 12 {
		t.Errorf("PEsFor(Ser) = %d, want 12 (uniform fallback)", got)
	}
	if cfg.InputQueueEntries != 128 || cfg.OutputQueueEntries != 128 {
		t.Errorf("queues = %d/%d, want 128/128", cfg.InputQueueEntries, cfg.OutputQueueEntries)
	}
	if want := sim.FromMicros(5000); cfg.TCPTimeout != want {
		t.Errorf("TCPTimeout = %v, want %v", cfg.TCPTimeout, want)
	}
	if pol.Name == "" {
		t.Errorf("policy has no name")
	}
}

func TestSpaceMaterializeRejectsInvalidConfig(t *testing.T) {
	// 10us is below the default RemoteRTT (18us), so config.Validate
	// must reject the candidate — the searcher relies on this filter.
	sp := mustBuild(t, SpaceSpec{TCPTimeoutUs: []float64{10000, 10}})
	if _, _, err := sp.Materialize([]int{1}); err == nil {
		t.Fatalf("Materialize accepted a TCPTimeout below RemoteRTT")
	}
	if _, _, err := sp.Materialize([]int{0}); err != nil {
		t.Fatalf("Materialize rejected the valid level: %v", err)
	}
}

func TestSpacePEMixDimOrderIsCanonical(t *testing.T) {
	// Dimension order must come from the accelerator encoding, not map
	// iteration: build twice and compare signatures.
	spec := SpaceSpec{PEMix: map[string][]int{"Ser": {8, 4}, "TCP": {8, 16}, "Cmp": {8, 2}}}
	a := mustBuild(t, spec).Signature()
	for i := 0; i < 10; i++ {
		if b := mustBuild(t, spec).Signature(); b != a {
			t.Fatalf("signature changed across builds: %q vs %q", a, b)
		}
	}
	// TCP encodes before Ser and Cmp, so its dimension must come first.
	sp := mustBuild(t, spec)
	if sp.Dims[0].Name != "pe/TCP" {
		t.Fatalf("first PEMix dim = %q, want pe/TCP", sp.Dims[0].Name)
	}
}

func TestSpaceNeighborsDeterministicAndDeduped(t *testing.T) {
	sp := mustBuild(t, SpaceSpec{
		Chiplets: []int{2, 1, 4},
		PEs:      []int{8, 4, 12},
		Policies: []string{"accelflow", "relief"},
	})
	cur := []int{1, 1, 0}
	got := sp.Neighbors(cur, 1)
	want := []string{
		"chiplets=2,pes=4,policy=accelflow",
		"chiplets=4,pes=4,policy=accelflow",
		"chiplets=1,pes=8,policy=accelflow",
		"chiplets=1,pes=12,policy=accelflow",
		"chiplets=1,pes=4,policy=relief",
	}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %d, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i, n := range got {
		k := sp.Key(n)
		if seen[k] {
			t.Errorf("duplicate neighbor %q", k)
		}
		seen[k] = true
		if k != want[i] {
			t.Errorf("neighbor[%d] = %q, want %q", i, k, want[i])
		}
	}
	// From a corner, radius 2 adds the two-step moves (chiplets and pes
	// each reach their third level) without duplicating radius-1.
	corner := []int{0, 0, 0}
	r1, r2 := sp.Neighbors(corner, 1), sp.Neighbors(corner, 2)
	if len(r1) != 3 || len(r2) != 5 {
		t.Fatalf("corner neighbors = %d/%d at radius 1/2, want 3/5", len(r1), len(r2))
	}
}

func TestDefaultSpaceStartsAtBaseline(t *testing.T) {
	sp := mustBuild(t, DefaultSpace())
	if len(sp.Dims) < 3 {
		t.Fatalf("default space has %d dims, want >= 3", len(sp.Dims))
	}
	cfg, _, err := sp.Materialize(sp.Start())
	if err != nil {
		t.Fatalf("Materialize(start): %v", err)
	}
	def := config.Default()
	if cfg.Chiplets != def.Chiplets || cfg.PEsPerAccel != def.PEsPerAccel {
		t.Fatalf("default-space start is not the base design: chiplets %d/%d, pes %d/%d",
			cfg.Chiplets, def.Chiplets, cfg.PEsPerAccel, def.PEsPerAccel)
	}
}
