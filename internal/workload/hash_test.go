package workload

import (
	"testing"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/obs"
	"accelflow/internal/services"
)

func hashSpec() *RunSpec {
	return &RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: Mix(services.SocialNetwork(), 1.0, 100),
		Seed:    7,
	}
}

// TestHashStable: hashing is pure — equal specs hash equal, repeat
// calls hash equal, and observation attachments (Obs/Check) are
// excluded because they cannot change results.
func TestHashStable(t *testing.T) {
	a, b := hashSpec(), hashSpec()
	if a.Hash() != b.Hash() {
		t.Fatal("equal specs hashed differently")
	}
	if a.Hash() != a.Hash() {
		t.Fatal("repeat hash of one spec differs")
	}
	b.Obs = obs.New()
	b.Check = check.New()
	if a.Hash() != b.Hash() {
		t.Error("Obs/Check attachments changed the hash; they never change results")
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash %q is not a sha256 hex digest", a.Hash())
	}
}

// TestHashSensitivity: every simulation input the hash covers moves
// the digest.
func TestHashSensitivity(t *testing.T) {
	ref := hashSpec().Hash()
	cases := map[string]func(*RunSpec){
		"seed":    func(s *RunSpec) { s.Seed++ },
		"config":  func(s *RunSpec) { s.Config.Cores++ },
		"policy":  func(s *RunSpec) { s.Policy = engine.RELIEF() },
		"budget":  func(s *RunSpec) { s.Sources[0].Requests++ },
		"tenant":  func(s *RunSpec) { s.Sources[0].Tenant++ },
		"arrival": func(s *RunSpec) { s.Sources[0].Arrivals = Poisson{RPS: 123} },
		"faults":  func(s *RunSpec) { s.Faults = &fault.Spec{Rate: 1} },
		"control": func(s *RunSpec) { s.Control = &control.Spec{Shed: &control.ShedSpec{Queue: 8}} },
		"sources": func(s *RunSpec) { s.Sources = s.Sources[:len(s.Sources)-1] },
	}
	for name, mutate := range cases {
		s := hashSpec()
		mutate(s)
		if s.Hash() == ref {
			t.Errorf("%s change did not move the hash", name)
		}
	}
}

// TestHashArrivalTypeMatters: two arrival processes with identical
// parameters but different laws are different workloads.
func TestHashArrivalTypeMatters(t *testing.T) {
	a, b := hashSpec(), hashSpec()
	a.Sources = SingleService(services.SocialNetwork()[0], Poisson{RPS: 1000}, 50)
	b.Sources = SingleService(services.SocialNetwork()[0], Azure{RPS: 1000}, 50)
	if a.Hash() == b.Hash() {
		t.Error("Poisson and Azure at equal RPS hashed identically")
	}
}
