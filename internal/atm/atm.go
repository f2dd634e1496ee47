// Package atm implements the Accelerator Trace Memory (paper §IV-A): a
// special on-chip memory where cores store traces before triggering an
// ensemble execution, and from which output dispatchers read
// continuation traces (the asterisk tails) without CPU involvement.
package atm

import (
	"fmt"
	"sort"

	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// ATM stores registered trace programs addressable by 8-bit addresses
// and by their symbolic names.
type ATM struct {
	syms     *trace.MapSymbols
	programs map[string]*trace.Program
	latency  sim.Time
	// stall is extra per-read latency charged during a fault window
	// (e.g. a stalled trace-memory arbiter); 0 outside windows.
	stall sim.Time

	Reads uint64

	// OnRead, when set, observes every continuation-trace fetch (name
	// and charged latency). Observers must not mutate simulation state.
	OnRead func(name string, lat sim.Time)
}

// New returns an empty ATM with the given read latency.
func New(readLatency sim.Time) *ATM {
	return &ATM{
		syms:     trace.NewMapSymbols(),
		programs: map[string]*trace.Program{},
		latency:  readLatency,
	}
}

// Register stores a program under its name and assigns it an address.
// Registering the same name twice with a different program is an error
// (the ATM is written once per service setup).
func (a *ATM) Register(p *trace.Program) error {
	if prev, ok := a.programs[p.Name]; ok && prev != p {
		return fmt.Errorf("atm: %q already registered with a different program", p.Name)
	}
	if _, err := a.syms.Register(p.Name); err != nil {
		return err
	}
	a.programs[p.Name] = p
	return nil
}

// Lookup returns the program registered under name.
func (a *ATM) Lookup(name string) (*trace.Program, bool) {
	p, ok := a.programs[name]
	return p, ok
}

// Read models an output dispatcher fetching the continuation trace:
// it returns the program and the read latency to charge, and counts
// the access.
func (a *ATM) Read(name string) (*trace.Program, sim.Time, error) {
	p, ok := a.programs[name]
	if !ok {
		return nil, 0, fmt.Errorf("atm: no trace %q", name)
	}
	a.Reads++
	lat := a.latency + a.stall
	if a.OnRead != nil {
		a.OnRead(name, lat)
	}
	return p, lat, nil
}

// SetStall sets the extra read latency charged while a fault window is
// active; negative values are clamped to zero.
func (a *ATM) SetStall(d sim.Time) {
	if d < 0 {
		d = 0
	}
	a.stall = d
}

// Stall reports the currently applied extra read latency.
func (a *ATM) Stall() sim.Time { return a.stall }

// Symbols exposes the symbol table for trace encoding.
func (a *ATM) Symbols() *trace.MapSymbols { return a.syms }

// VerifyEncodable checks that every registered program either encodes
// within the 8-byte limit or was already split; it returns the
// offending program first in name order. Used by tests and
// service-catalog validation.
func (a *ATM) VerifyEncodable() error {
	names := make([]string, 0, len(a.programs))
	for name := range a.programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := a.programs[name].Encode(a.syms); err != nil {
			return fmt.Errorf("atm: %s: %v", name, err)
		}
	}
	return nil
}
