package atm

import (
	"strings"
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

func prog(t *testing.T, name string) *trace.Program {
	t.Helper()
	return trace.New(name).Seq(config.Ser, config.Encr, config.TCP).MustBuild()
}

func TestRegisterAndLookup(t *testing.T) {
	a := New(25 * sim.Nanosecond)
	p := prog(t, "t4")
	if err := a.Register(p); err != nil {
		t.Fatal(err)
	}
	got, ok := a.Lookup("t4")
	if !ok || got != p {
		t.Error("lookup failed")
	}
	if _, ok := a.Lookup("nope"); ok {
		t.Error("found unregistered trace")
	}
}

func TestRegisterIdempotentAndConflict(t *testing.T) {
	a := New(0)
	p := prog(t, "x")
	if err := a.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(p); err != nil {
		t.Errorf("re-registering same program failed: %v", err)
	}
	other := prog(t, "x")
	if err := a.Register(other); err == nil {
		t.Error("conflicting registration accepted")
	}
}

func TestReadChargesLatencyAndCounts(t *testing.T) {
	a := New(25 * sim.Nanosecond)
	p := prog(t, "t")
	if err := a.Register(p); err != nil {
		t.Fatal(err)
	}
	got, lat, err := a.Read("t")
	if err != nil || got != p {
		t.Fatalf("read: %v", err)
	}
	if lat != 25*sim.Nanosecond {
		t.Errorf("latency = %v", lat)
	}
	if a.Reads != 1 {
		t.Errorf("reads = %d", a.Reads)
	}
	if _, _, err := a.Read("missing"); err == nil {
		t.Error("read of missing trace succeeded")
	}
}

func TestSymbolsAssignedOnRegister(t *testing.T) {
	a := New(0)
	p := prog(t, "sym")
	if err := a.Register(p); err != nil {
		t.Fatal(err)
	}
	addr, ok := a.Symbols().AddrOf("sym")
	if !ok {
		t.Fatal("no address assigned")
	}
	name, ok := a.Symbols().NameOf(addr)
	if !ok || name != "sym" {
		t.Error("reverse lookup failed")
	}
}

func TestVerifyEncodable(t *testing.T) {
	a := New(0)
	if err := a.Register(prog(t, "ok")); err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyEncodable(); err != nil {
		t.Errorf("small trace flagged: %v", err)
	}
	b := trace.New("big")
	for i := 0; i < 20; i++ {
		b.Seq(config.TCP)
	}
	if err := a.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyEncodable(); err == nil {
		t.Error("oversized trace passed VerifyEncodable")
	}
}

// TestVerifyEncodableNamesFirstInNameOrder: with two oversized
// programs registered, every call names the same one, the first by
// name, whatever the program map's iteration order.
func TestVerifyEncodableNamesFirstInNameOrder(t *testing.T) {
	a := New(0)
	for _, name := range []string{"zeta", "alpha"} {
		b := trace.New(name)
		for i := 0; i < 20; i++ {
			b.Seq(config.TCP)
		}
		if err := a.Register(b.MustBuild()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		err := a.VerifyEncodable()
		if err == nil || !strings.HasPrefix(err.Error(), "atm: alpha:") {
			t.Fatalf("call %d: VerifyEncodable() = %v, want the error for alpha", i, err)
		}
	}
}
