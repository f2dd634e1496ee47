package services

import (
	"testing"

	"accelflow/internal/atm"
	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/trace"
)

func catalogATM(t *testing.T, progs []*trace.Program) *atm.ATM {
	t.Helper()
	a := atm.New(0)
	for _, p := range progs {
		if err := a.Register(p); err != nil {
			t.Fatalf("register %q: %v", p.Name, err)
		}
	}
	return a
}

// TestCatalogEncodesWithinEightBytes verifies the paper's §IV-A size
// claim: with the major-divergence subtrace splits, every Table II
// trace fits the 8-byte encoding.
func TestCatalogEncodesWithinEightBytes(t *testing.T) {
	a := catalogATM(t, Catalog())
	if err := a.VerifyEncodable(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseCatalogEncodes(t *testing.T) {
	a := catalogATM(t, CoarseCatalog())
	if err := a.VerifyEncodable(); err != nil {
		t.Fatal(err)
	}
}

// commonPathAccels walks a service's steps on the common flag set,
// following tails and forks, and counts accelerator invocations —
// reproducing Table IV's "#" column.
func commonPathAccels(t *testing.T, a *atm.ATM, svc *Service) int {
	t.Helper()
	total := 0
	var chainCount func(name string, f trace.Flags)
	chainCount = func(name string, f trace.Flags) {
		p, ok := a.Lookup(name)
		if !ok {
			t.Fatalf("%s: trace %q missing", svc.Name, name)
		}
		for {
			accels, _, tail := p.Invocations(f)
			total += len(accels)
			// Count forks too.
			pc := 0
			for pc < len(p.Instrs) {
				in := p.Instrs[pc]
				if in.Kind == trace.OpFork {
					chainCount(in.TailName, f)
				}
				if in.Kind == trace.OpTail || in.Kind == trace.OpEnd {
					break
				}
				pc = p.Next(pc, f)
			}
			if tail == "" {
				return
			}
			np, ok := a.Lookup(tail)
			if !ok {
				t.Fatalf("%s: tail %q missing", svc.Name, tail)
			}
			p = np
		}
	}
	for _, st := range svc.Steps {
		probs := svc.Probs
		if st.Probs != nil {
			probs = *st.Probs
		}
		f := probs.Common()
		switch st.Kind {
		case engine.StepChain:
			chainCount(st.Trace, f)
		case engine.StepParallel:
			for _, tn := range st.Par {
				chainCount(tn, f)
			}
		}
	}
	return total
}

// TestTableIVAccelCounts validates every SocialNetwork service's
// most-common-path accelerator count against Table IV.
func TestTableIVAccelCounts(t *testing.T) {
	a := catalogATM(t, Catalog())
	for _, svc := range SocialNetwork() {
		got := commonPathAccels(t, a, svc)
		if got != svc.WantAccels {
			t.Errorf("%s: common path uses %d accelerators, Table IV says %d", svc.Name, got, svc.WantAccels)
		}
	}
}

func TestSocialNetworkRatesAverage(t *testing.T) {
	// §VI: the Alibaba-like per-service rates average 13.4K RPS.
	got := MeanRatekRPS(SocialNetwork())
	if got < 13.3 || got > 13.5 {
		t.Errorf("mean rate = %.2fK RPS, want 13.4K", got)
	}
}

func TestByName(t *testing.T) {
	svcs := SocialNetwork()
	if ByName(svcs, "Login") == nil {
		t.Error("Login not found")
	}
	if ByName(svcs, "Nope") != nil {
		t.Error("found a service that does not exist")
	}
}

// branchShare computes the fraction of distinct trace chains used by a
// suite that contain at least one conditional — the Q2 statistic.
func branchShare(t *testing.T, svcs []*Service) float64 {
	t.Helper()
	a := catalogATM(t, Catalog())
	// A chain has a conditional if any trace reachable from its start
	// (via tails or forks on any outcome) has one.
	withBranch, total := 0, 0
	for _, svc := range svcs {
		starts := []string{}
		for _, st := range svc.Steps {
			switch st.Kind {
			case engine.StepChain:
				starts = append(starts, st.Trace)
			case engine.StepParallel:
				starts = append(starts, st.Par...)
			}
		}
		for _, s := range starts {
			total++
			visited := map[string]bool{}
			var any func(name string) bool
			any = func(name string) bool {
				if visited[name] {
					return false
				}
				visited[name] = true
				p, ok := a.Lookup(name)
				if !ok {
					t.Fatalf("missing trace %q", name)
				}
				if p.HasBranch() {
					return true
				}
				for _, in := range p.Instrs {
					if (in.Kind == trace.OpTail || in.Kind == trace.OpFork) && any(in.TailName) {
						return true
					}
				}
				return false
			}
			if any(s) {
				withBranch++
			}
		}
	}
	return float64(withBranch) / float64(total)
}

// TestQ2BranchShares checks that a majority of sequences contain
// conditionals, in the same band the paper reports (53.8%-82.5%).
func TestQ2BranchShares(t *testing.T) {
	for _, suite := range AllSuites() {
		share := branchShare(t, suite.Services)
		if share < 0.40 || share > 0.95 {
			t.Errorf("%s: branch share %.1f%% outside the paper's band", suite.Name, share*100)
		}
	}
}

func TestRemoteTailsAreRegisteredTraces(t *testing.T) {
	a := catalogATM(t, Catalog())
	for name := range RemoteTails() {
		if _, ok := a.Lookup(name); !ok {
			t.Errorf("remote tail key %q is not a registered trace", name)
		}
	}
}

func TestEveryTailAndForkResolves(t *testing.T) {
	a := catalogATM(t, Catalog())
	for _, p := range Catalog() {
		for _, in := range p.Instrs {
			if in.Kind == trace.OpTail || in.Kind == trace.OpFork {
				if _, ok := a.Lookup(in.TailName); !ok {
					t.Errorf("%s references unregistered %q", p.Name, in.TailName)
				}
			}
		}
	}
}

func TestServicesHaveValidSteps(t *testing.T) {
	all := [][]*Service{SocialNetwork(), HotelReservation(), MediaServices(), TrainTicket(), Serverless()}
	a := catalogATM(t, Catalog())
	for _, group := range all {
		for _, svc := range group {
			if len(svc.Steps) == 0 {
				t.Errorf("%s has no steps", svc.Name)
			}
			if svc.PayloadMedian <= 0 || svc.PayloadSigma <= 0 {
				t.Errorf("%s has no payload distribution", svc.Name)
			}
			for _, st := range svc.Steps {
				switch st.Kind {
				case engine.StepChain:
					if _, ok := a.Lookup(st.Trace); !ok {
						t.Errorf("%s uses unregistered trace %q", svc.Name, st.Trace)
					}
				case engine.StepParallel:
					for _, tn := range st.Par {
						if _, ok := a.Lookup(tn); !ok {
							t.Errorf("%s uses unregistered trace %q", svc.Name, tn)
						}
					}
				}
			}
			j := svc.Job()
			if j.Service != svc.Name {
				t.Errorf("%s Job() lost fields", svc.Name)
			}
		}
	}
}

// TestTableIConnectivity reproduces Table I's structure from the trace
// catalog: every accelerator must have the flexible multi-source,
// multi-destination connectivity the paper reports.
func TestTableIConnectivity(t *testing.T) {
	c := trace.NewConnectivity()
	for _, p := range Catalog() {
		c.AddProgram(p)
	}
	// Spot-check rows of Table I.
	if !c.Sources[config.Decr][trace.Endpoint(config.TCP)] {
		t.Error("Decr should source from TCP")
	}
	if !c.Destinations[config.Decr][trace.Endpoint(config.RPC)] {
		t.Error("Decr should feed RPC")
	}
	if !c.Destinations[config.Decr][trace.Endpoint(config.Dser)] {
		t.Error("Decr should feed Dser")
	}
	if !c.Sources[config.TCP][trace.Endpoint(config.Encr)] {
		t.Error("TCP should source from Encr")
	}
	if !c.Destinations[config.LdB][trace.EndpointCPU] {
		t.Error("LdB should feed the CPU")
	}
	// Every accelerator participates.
	for _, k := range config.AllAccelKinds() {
		if len(c.Sources[k]) == 0 {
			t.Errorf("%v has no sources in the catalog", k)
		}
	}
	// The Cohort static pairs must be among the top pairs.
	top := c.TopPairs(6)
	found := 0
	want := map[[2]config.AccelKind]bool{
		{config.Encr, config.TCP}: true,
		{config.TCP, config.Decr}: true,
		{config.Ser, config.Encr}: true,
	}
	for _, p := range top {
		if want[p] {
			found++
		}
	}
	if found < 2 {
		t.Errorf("default Cohort pairs not among top-6 catalog pairs: %v", top)
	}
}

func TestCoarseAppsValid(t *testing.T) {
	a := catalogATM(t, CoarseCatalog())
	cfg := CoarseConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, app := range CoarseApps() {
		for _, st := range app.Steps {
			if st.Kind == engine.StepChain {
				if _, ok := a.Lookup(st.Trace); !ok {
					t.Errorf("%s uses unregistered coarse trace %q", app.Name, st.Trace)
				}
			}
		}
	}
	// Coarse accelerator costs must dwarf fine-grained ones.
	fine := config.Default()
	if cfg.AccelCost(CoarseGauss, 1<<20) <= fine.AccelCost(config.TCP, 2048) {
		t.Error("coarse accel cost not coarse")
	}
	names := map[string]bool{}
	for _, k := range []config.AccelKind{CoarseGauss, CoarseSobel, CoarseNonMax, CoarseThresh, CoarseGEMM, CoarseLSTM, CoarsePool} {
		n := CoarseAccelName(k)
		if names[n] {
			t.Errorf("duplicate coarse name %q", n)
		}
		names[n] = true
	}
	if CoarseAccelName(config.LdB) != "LdB" {
		t.Error("unmapped slot should keep its ensemble name")
	}
}
