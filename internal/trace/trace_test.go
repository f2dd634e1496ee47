package trace

import (
	"strings"
	"testing"

	"accelflow/internal/config"
)

// listing1 builds the paper's Listing 1 trace (Fig. 4a / T1): TCP, Decr,
// RPC, Dser, then a Compressed? branch invoking a JSON->string transform
// and Dcmp, then LdB.
func listing1(t *testing.T) *Program {
	t.Helper()
	p, err := New("func_req").
		Seq(config.TCP, config.Decr, config.RPC, config.Dser).
		Branch(CondCompressed,
			Sub().Trans(FmtJSON, FmtString).Seq(config.Dcmp),
			nil).
		Seq(config.LdB).
		Build()
	if err != nil {
		t.Fatalf("listing1: %v", err)
	}
	return p
}

func TestListing1PathCompressed(t *testing.T) {
	p := listing1(t)
	accels, transforms, tail := p.Invocations(FlagCompressed)
	want := []config.AccelKind{config.TCP, config.Decr, config.RPC, config.Dser, config.Dcmp, config.LdB}
	if len(accels) != len(want) {
		t.Fatalf("compressed path = %v, want %v", accels, want)
	}
	for i := range want {
		if accels[i] != want[i] {
			t.Fatalf("compressed path = %v, want %v", accels, want)
		}
	}
	if transforms != 1 {
		t.Errorf("transforms = %d, want 1", transforms)
	}
	if tail != "" {
		t.Errorf("tail = %q, want none", tail)
	}
}

func TestListing1PathUncompressed(t *testing.T) {
	p := listing1(t)
	accels, transforms, _ := p.Invocations(0)
	want := []config.AccelKind{config.TCP, config.Decr, config.RPC, config.Dser, config.LdB}
	if len(accels) != len(want) {
		t.Fatalf("uncompressed path = %v, want %v", accels, want)
	}
	for i := range want {
		if accels[i] != want[i] {
			t.Fatalf("uncompressed path = %v, want %v", accels, want)
		}
	}
	if transforms != 0 {
		t.Errorf("transforms = %d, want 0 on the uncompressed path", transforms)
	}
}

func TestBranchMetadata(t *testing.T) {
	p := listing1(t)
	if !p.HasBranch() {
		t.Error("HasBranch = false")
	}
}

func TestTailInBranchArm(t *testing.T) {
	// T5-like: hit -> LdB and end; miss -> Ser,Encr,TCP chaining to T6.
	p, err := New("t5").
		Seq(config.TCP, config.Decr, config.Dser).
		Branch(CondHit,
			Sub().Seq(config.LdB),
			Sub().Seq(config.Ser, config.Encr, config.TCP).Tail("t6")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	accels, _, tail := p.Invocations(FlagHit)
	if tail != "" || accels[len(accels)-1] != config.LdB {
		t.Errorf("hit path: accels=%v tail=%q", accels, tail)
	}
	accels, _, tail = p.Invocations(0)
	if tail != "t6" {
		t.Errorf("miss path tail = %q, want t6", tail)
	}
	if accels[len(accels)-1] != config.TCP {
		t.Errorf("miss path = %v, want ...TCP", accels)
	}
}

func TestNestedBranches(t *testing.T) {
	p, err := New("nested").
		Seq(config.TCP).
		Branch(CondHit,
			Sub().Branch(CondCompressed, Sub().Seq(config.Dcmp), nil).Seq(config.LdB),
			Sub().Seq(config.Ser)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		f    Flags
		want []config.AccelKind
	}{
		{FlagHit | FlagCompressed, []config.AccelKind{config.TCP, config.Dcmp, config.LdB}},
		{FlagHit, []config.AccelKind{config.TCP, config.LdB}},
		{0, []config.AccelKind{config.TCP, config.Ser}},
		{FlagCompressed, []config.AccelKind{config.TCP, config.Ser}},
	}
	for _, c := range cases {
		got, _, _ := p.Invocations(c.f)
		if len(got) != len(c.want) {
			t.Fatalf("flags %b: path %v, want %v", c.f, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("flags %b: path %v, want %v", c.f, got, c.want)
			}
		}
	}
}

func TestForkFallsThrough(t *testing.T) {
	p, err := New("forky").
		Seq(config.Dcmp).
		Fork("writeback").
		Seq(config.LdB).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	accels, _, _ := p.Invocations(0)
	if len(accels) != 2 || accels[1] != config.LdB {
		t.Errorf("fork did not fall through: %v", accels)
	}
	forks := 0
	for _, in := range p.Instrs {
		if in.Kind == OpFork && in.TailName == "writeback" {
			forks++
		}
	}
	if forks != 1 {
		t.Errorf("fork instrs = %d, want 1", forks)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := New("empty").Build(); err == nil {
		t.Error("empty trace built")
	}
	if _, err := New("badaccel").Seq(config.AccelKind(99)).Build(); err == nil {
		t.Error("invalid accelerator accepted")
	}
	if _, err := New("badcond").Seq(config.TCP).Branch(CondNone, nil, nil).Build(); err == nil {
		t.Error("CondNone branch accepted")
	}
	if _, err := New("badtrans").Seq(config.TCP).Trans(FmtJSON, FmtJSON).Build(); err == nil {
		t.Error("identity transform accepted")
	}
	if _, err := New("badtrans2").Seq(config.TCP).Trans(Format(9), FmtJSON).Build(); err == nil {
		t.Error("invalid format accepted")
	}
	if _, err := New("badtail").Seq(config.TCP).Tail("").Build(); err == nil {
		t.Error("empty tail name accepted")
	}
	if _, err := New("badfork").Seq(config.TCP).Fork("").Build(); err == nil {
		t.Error("empty fork name accepted")
	}
	// Errors inside arms propagate.
	if _, err := New("armerr").Seq(config.TCP).
		Branch(CondHit, Sub().Seq(config.AccelKind(77)), nil).Build(); err == nil {
		t.Error("arm error not propagated")
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	New("x").MustBuild()
}

func TestCondEvalAndStrings(t *testing.T) {
	all := []struct {
		c Cond
		f Flags
	}{
		{CondCompressed, FlagCompressed},
		{CondHit, FlagHit},
		{CondFound, FlagFound},
		{CondException, FlagException},
		{CondCCompressed, FlagCCompressed},
	}
	for _, x := range all {
		if !x.c.Eval(x.f) {
			t.Errorf("%v not true under its own flag", x.c)
		}
		if x.c.Eval(0) {
			t.Errorf("%v true under zero flags", x.c)
		}
		if x.c.String() == "" || strings.HasPrefix(x.c.String(), "Cond(") {
			t.Errorf("%v has no name", x.c)
		}
	}
	if CondNone.Eval(0xFF) {
		t.Error("CondNone evaluated true")
	}
	if Format(0).String() != "wire" || FmtBSON.String() != "BSON" {
		t.Error("format names wrong")
	}
	if Cond(99).String() == "" || Format(99).String() == "" {
		t.Error("out-of-range names empty")
	}
}

func TestProgramString(t *testing.T) {
	s := listing1(t).String()
	for _, want := range []string{"invoke TCP", "branch Compressed?", "trans JSON -> string", "invoke Dcmp", "invoke LdB", "end"} {
		if !strings.Contains(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func TestConnectivityTableI(t *testing.T) {
	c := NewConnectivity()
	c.AddProgram(listing1(t))
	// Dser's sources include RPC; destinations include Dcmp and LdB.
	if !c.Sources[config.Dser][Endpoint(config.RPC)] {
		t.Error("Dser source RPC missing")
	}
	if !c.Destinations[config.Dser][Endpoint(config.Dcmp)] {
		t.Error("Dser dest Dcmp missing")
	}
	if !c.Destinations[config.Dser][Endpoint(config.LdB)] {
		t.Error("Dser dest LdB missing")
	}
	// Path boundaries attach to the CPU.
	if !c.Sources[config.TCP][EndpointCPU] {
		t.Error("TCP should be CPU-sourced")
	}
	if !c.Destinations[config.LdB][EndpointCPU] {
		t.Error("LdB should feed the CPU")
	}
	if EndpointCPU.String() != "CPU" || Endpoint(config.TCP).String() != "TCP" {
		t.Error("endpoint names wrong")
	}
}

func TestConnectivityTopPairs(t *testing.T) {
	c := NewConnectivity()
	for i := 0; i < 3; i++ {
		c.AddPath([]config.AccelKind{config.Ser, config.Encr, config.TCP})
	}
	c.AddPath([]config.AccelKind{config.TCP, config.Decr})
	top := c.TopPairs(2)
	if len(top) != 2 {
		t.Fatalf("TopPairs returned %d", len(top))
	}
	if top[0] != [2]config.AccelKind{config.Ser, config.Encr} &&
		top[0] != [2]config.AccelKind{config.Encr, config.TCP} {
		t.Errorf("top pair = %v", top[0])
	}
	if got := c.TopPairs(100); len(got) != 3 {
		t.Errorf("TopPairs(100) = %d pairs, want 3", len(got))
	}
}

func TestNextOnNonBranch(t *testing.T) {
	p := listing1(t)
	if p.Next(0, 0) != 1 {
		t.Error("Next on invoke should fall through")
	}
}
