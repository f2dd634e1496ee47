// The canonical observed run: the full SocialNetwork mix under the
// AccelFlow policy with the span/utilization observer attached, and
// optionally the deterministic fault injector. Both front ends — the
// accelsim CLI's -trace/-report flags and the accelsimd job daemon —
// build their observed runs through this file, which is what makes the
// daemon's determinism contract checkable: the same ObservedParams
// produce the same RunSpec, so the exported artifact bytes can only
// depend on (Seed, Requests, Quick, fault knobs, control spec), and
// ObservedParams.Key names exactly those inputs.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"accelflow/internal/check"
	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/fault"
	"accelflow/internal/obs"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

// ObservedParams configures one observed SocialNetwork run.
type ObservedParams struct {
	// Seed is the run's RNG seed (the CLI default is 1).
	Seed int64
	// Requests is the total request budget across the mix; <= 0 means
	// the CLI default of 2500. Quick caps it at 600.
	Requests int
	Quick    bool

	// FaultRate is the fault-window arrival rate in windows per
	// simulated second; 0 disables window scheduling.
	FaultRate float64
	// FaultWindow is the mean fault-window duration; <= 0 means the
	// default of 200us.
	FaultWindow sim.Time
	// FaultLoss overrides the remote-response loss rate (in [0,1]; 0
	// keeps the baked-in 3.2e-6).
	FaultLoss float64

	// Control, when non-nil, attaches the dynamic-control subsystem
	// (the -ctl* flags on accelsim; the "control" job knob on
	// accelsimd). The spec joins the run's Key, so controlled and
	// uncontrolled runs never collide in result caches.
	Control *control.Spec

	// Check attaches the runtime invariant checker to the run (the
	// -check flag on both binaries). Checking never changes results;
	// a violation fails the run with a structured error.
	Check bool
}

// Validate rejects out-of-range parameters with a caller-facing
// message. Run front ends call it before admitting work so a bad
// request fails fast instead of panicking mid-simulation.
func (p ObservedParams) Validate() error {
	switch {
	case p.Requests < 0:
		return fmt.Errorf("observed run: requests must be non-negative, got %d", p.Requests)
	case p.FaultRate < 0:
		return fmt.Errorf("observed run: fault rate must be non-negative, got %v", p.FaultRate)
	case p.FaultWindow < 0:
		return fmt.Errorf("observed run: fault window must be non-negative, got %v", p.FaultWindow)
	case p.FaultLoss < 0 || p.FaultLoss > 1:
		return fmt.Errorf("observed run: fault loss rate must be in [0,1], got %v", p.FaultLoss)
	}
	if f := p.faults(); f != nil {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("observed run: %w", err)
		}
	}
	if err := p.Control.Validate(); err != nil {
		return fmt.Errorf("observed run: %w", err)
	}
	return nil
}

// BuildObserved validates p and assembles the observed run's RunSpec
// together with its attached Sink. The caller runs the spec (Run or
// RunCtx) and exports artifacts from the sink; nothing here starts the
// simulation.
func BuildObserved(p ObservedParams) (*RunSpec, *obs.Sink, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	sink := obs.New()
	spec := &RunSpec{
		Config:  config.Default(),
		Policy:  engine.AccelFlow(),
		Sources: Mix(services.SocialNetwork(), 1.0, p.budget()),
		Seed:    p.Seed,
		Obs:     sink,
		Faults:  p.faults(),
		Control: p.Control,
	}
	if p.Check {
		spec.Check = check.New()
	}
	return spec, sink, nil
}

// budget is the run's effective request budget: <= 0 takes the CLI
// default of 2500, and Quick caps it at 600.
func (p ObservedParams) budget() int {
	n := p.Requests
	if n <= 0 {
		n = 2500
	}
	if p.Quick && n > 600 {
		n = 600
	}
	return n
}

// Key is the run's result identity: a SHA-256 hex digest over the
// inputs BuildObserved takes from p — the effective budget, the seed,
// the fault spec and the control spec. Everything else a run reads
// (config, policy, service catalog, arrival processes) is a constant of
// this file, so two params with equal keys run bit-identical
// simulations. Quick joins only through the budget it caps; Check,
// which only observes, and a fault window with both fault knobs off,
// which attaches nothing, do not join at all. Key fails only on a
// non-finite knob, which Validate rejects.
func (p ObservedParams) Key() (string, error) {
	faults, ferr := json.Marshal(p.faults())
	ctl, cerr := json.Marshal(p.Control)
	if err := errors.Join(ferr, cerr); err != nil {
		return "", err
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "observed|requests=%d|seed=%d|faults=%s|control=%s",
		p.budget(), p.Seed, faults, ctl))
	return hex.EncodeToString(sum[:]), nil
}

// faults is the run's fault spec, nil when both fault knobs are off.
func (p ObservedParams) faults() *fault.Spec {
	if p.FaultRate <= 0 && p.FaultLoss <= 0 {
		return nil
	}
	win := p.FaultWindow
	if win <= 0 {
		win = 200 * sim.Microsecond
	}
	return fault.Mix(p.FaultRate, win, p.FaultLoss)
}
