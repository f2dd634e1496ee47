package trace

import (
	"testing"
	"testing/quick"

	"accelflow/internal/config"
)

func syms(t testing.TB, names ...string) *MapSymbols {
	t.Helper()
	m := NewMapSymbols()
	for _, n := range names {
		if _, err := m.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func roundTrip(t *testing.T, p *Program, m *MapSymbols) *Program {
	t.Helper()
	data, err := p.Encode(m)
	if err != nil {
		t.Fatalf("encode %q: %v", p.Name, err)
	}
	if len(data) > MaxTraceBytes {
		t.Fatalf("encoded %q to %d bytes > %d", p.Name, len(data), MaxTraceBytes)
	}
	q, err := Decode(p.Name, data, p.EncodedNibbles(), m)
	if err != nil {
		t.Fatalf("decode %q: %v", p.Name, err)
	}
	return q
}

func samePrograms(a, b *Program) bool {
	if len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		x, y := a.Instrs[i], b.Instrs[i]
		if x.Kind != y.Kind || x.Accel != y.Accel || x.Cond != y.Cond ||
			x.Src != y.Src || x.Dst != y.Dst || x.TailName != y.TailName {
			return false
		}
		if x.Kind == OpBranch && (x.TrueTarget != y.TrueTarget || x.FalseTarget != y.FalseTarget) {
			return false
		}
	}
	return true
}

func TestEncodeDecodeLinear(t *testing.T) {
	p := New("lin").Seq(config.Ser, config.RPC, config.Encr, config.TCP).MustBuild()
	q := roundTrip(t, p, NewMapSymbols())
	if !samePrograms(p, q) {
		t.Errorf("round trip mismatch:\n%s\n%s", p, q)
	}
	// 4 invokes + end = 5 nibbles = 3 bytes.
	if p.EncodedNibbles() != 5 || p.EncodedBytes() != 3 {
		t.Errorf("encoded size = %d nibbles / %d bytes", p.EncodedNibbles(), p.EncodedBytes())
	}
}

func TestEncodeDecodeWithBranchTransTail(t *testing.T) {
	m := syms(t, "t6")
	prog := New("t5").
		Seq(config.TCP, config.Decr, config.Dser).
		Branch(CondHit,
			Sub().Seq(config.LdB),
			Sub().Seq(config.Ser, config.Encr, config.TCP).Tail("t6")).
		MustBuild()
	q := roundTrip(t, prog, m)
	if !samePrograms(prog, q) {
		t.Errorf("round trip mismatch:\n%s\n%s", prog, q)
	}
}

func TestEncodeDecodeFork(t *testing.T) {
	m := syms(t, "wb")
	p := New("f").Seq(config.Dcmp).Fork("wb").Seq(config.LdB).MustBuild()
	q := roundTrip(t, p, m)
	if !samePrograms(p, q) {
		t.Errorf("round trip mismatch:\n%s\n%s", p, q)
	}
}

func TestEncodeDecodeTransform(t *testing.T) {
	p := New("tr").Seq(config.Dser).Trans(FmtJSON, FmtString).Seq(config.Dcmp).MustBuild()
	q := roundTrip(t, p, NewMapSymbols())
	if !samePrograms(p, q) {
		t.Errorf("round trip mismatch:\n%s\n%s", p, q)
	}
}

func TestListing1FitsInEightBytes(t *testing.T) {
	p := New("func_req").
		Seq(config.TCP, config.Decr, config.RPC, config.Dser).
		Branch(CondCompressed,
			Sub().Trans(FmtJSON, FmtString).Seq(config.Dcmp),
			nil).
		Seq(config.LdB).
		MustBuild()
	data, err := p.Encode(NewMapSymbols())
	if err != nil {
		t.Fatalf("the paper's Listing 1 trace must encode: %v", err)
	}
	if len(data) > MaxTraceBytes {
		t.Errorf("Listing 1 encodes to %d bytes > 8", len(data))
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	b := New("long")
	for i := 0; i < 20; i++ {
		b.Seq(config.TCP)
	}
	p := b.MustBuild()
	if _, err := p.Encode(NewMapSymbols()); err == nil {
		t.Error("oversized trace encoded without error")
	}
}

func TestEncodeRejectsUnknownATMName(t *testing.T) {
	p := New("t").Seq(config.TCP).Tail("missing").MustBuild()
	if _, err := p.Encode(NewMapSymbols()); err == nil {
		t.Error("unknown ATM name accepted")
	}
}

func TestSplitLinear(t *testing.T) {
	b := New("long")
	for i := 0; i < 30; i++ {
		b.Seq(config.AccelKind(i % int(config.NumAccelKinds)))
	}
	p := b.MustBuild()
	parts, err := p.Split()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("expected multiple subtraces, got %d", len(parts))
	}
	m := NewMapSymbols()
	for _, part := range parts {
		if _, err := m.Register(part.Name); err != nil {
			t.Fatal(err)
		}
	}
	var total []config.AccelKind
	for i, part := range parts {
		if _, err := part.Encode(m); err != nil {
			t.Errorf("subtrace %d does not encode: %v", i, err)
		}
		accels, _, tail := part.Invocations(0)
		total = append(total, accels...)
		if i < len(parts)-1 && tail != parts[i+1].Name {
			t.Errorf("subtrace %d tail = %q, want %q", i, tail, parts[i+1].Name)
		}
		if i == len(parts)-1 && tail != "" {
			t.Errorf("last subtrace has tail %q", tail)
		}
	}
	if len(total) != 30 {
		t.Errorf("split preserved %d invocations, want 30", len(total))
	}
	for i, a := range total {
		if a != config.AccelKind(i%int(config.NumAccelKinds)) {
			t.Fatalf("invocation %d = %v after split", i, a)
		}
	}
}

func TestSplitNoopWhenSmall(t *testing.T) {
	p := New("small").Seq(config.TCP, config.Decr).MustBuild()
	parts, err := p.Split()
	if err != nil || len(parts) != 1 || parts[0] != p {
		t.Errorf("small split = %v parts, err %v", len(parts), err)
	}
}

func TestSplitRejectsBranches(t *testing.T) {
	b := New("branchy").Seq(config.TCP)
	for i := 0; i < 8; i++ {
		b.Branch(CondHit, Sub().Seq(config.Ser), Sub().Seq(config.Cmp))
	}
	p := b.MustBuild()
	if _, err := p.Split(); err == nil {
		t.Error("branchy program auto-split")
	}
}

func TestDecodeErrors(t *testing.T) {
	m := NewMapSymbols()
	cases := []struct {
		name string
		data []byte
		nibs int
	}{
		{"truncated-branch", []byte{0x91}, 2},
		{"truncated-trans", []byte{0xA0}, 1},
		{"truncated-tail", []byte{0xB0}, 2},
		{"bad-nibble", []byte{0xE0}, 1},
		{"bad-atm", []byte{0xB0, 0x50}, 3},
		{"empty", []byte{}, 0},
		{"overlong", []byte{0x00}, 5},
		{"past-16-nibbles", make([]byte, 9), 17},
		// A jump to instruction 15 of a 2-instruction program.
		{"jump-out-of-range", []byte{0xDF, 0xF0}, 3},
		// A branch on undefined condition 14, with no End.
		{"undefined-condition", []byte{0x9E, 0xF0}, 3},
		{"branch-on-none", []byte{0x90, 0x2F}, 4},
		{"no-end", []byte{0x12}, 2},
	}
	for _, c := range cases {
		if _, err := Decode(c.name, c.data, c.nibs, m); err == nil {
			t.Errorf("%s: decode succeeded", c.name)
		}
	}
}

func TestSymbolTable(t *testing.T) {
	m := NewMapSymbols()
	a1, err := m.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := m.Register("x")
	if a1 != a2 {
		t.Error("re-registration changed address")
	}
	if _, ok := m.AddrOf("y"); ok {
		t.Error("unknown name resolved")
	}
	if n, ok := m.NameOf(a1); !ok || n != "x" {
		t.Error("NameOf failed")
	}
	for i := 0; i < 300; i++ {
		if _, err := m.Register(string(rune('a'+i%26)) + string(rune('0'+i/26))); err != nil {
			if i < 250 {
				t.Fatalf("table filled too early at %d: %v", i, err)
			}
			return
		}
	}
	t.Error("256-entry limit not enforced")
}

// Property: any linear accelerator sequence round-trips through
// encode/decode when it fits, and splits losslessly when it does not.
func TestPropertyLinearRoundTrip(t *testing.T) {
	f := func(kinds []uint8) bool {
		if len(kinds) == 0 {
			return true
		}
		b := New("p")
		for _, k := range kinds {
			b.Seq(config.AccelKind(k % uint8(config.NumAccelKinds)))
		}
		p := b.MustBuild()
		parts, err := p.Split()
		if err != nil {
			return false
		}
		m := NewMapSymbols()
		for _, part := range parts {
			if _, err := m.Register(part.Name); err != nil {
				return false
			}
		}
		var got []config.AccelKind
		for _, part := range parts {
			data, err := part.Encode(m)
			if err != nil {
				return false
			}
			q, err := Decode(part.Name, data, part.EncodedNibbles(), m)
			if err != nil {
				return false
			}
			accels, _, _ := q.Invocations(0)
			got = append(got, accels...)
		}
		if len(got) != len(kinds) {
			return false
		}
		for i := range got {
			if got[i] != config.AccelKind(kinds[i]%uint8(config.NumAccelKinds)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeRoundTrip checks that Decode accepts only runnable programs
// Encode reproduces: whenever it accepts (data, nibbles), every branch
// stays in range, the program ends in End, and it re-encodes to the
// same first nibbles nibbles and decodes back to the same
// instructions. Run it with
//
//	go test -run '^$' -fuzz FuzzDecodeRoundTrip -fuzztime 15s ./internal/trace
func FuzzDecodeRoundTrip(f *testing.F) {
	// The ATM names the round-trip tests use, then enough others that
	// both known and unknown addresses occur.
	m := syms(f, "t6", "wb", "p#1", "p#2")
	for i := 0; i < 28; i++ {
		if _, err := m.Register(string(rune('a' + i))); err != nil {
			f.Fatal(err)
		}
	}
	seeds := []*Program{
		New("lin").Seq(config.Ser, config.RPC, config.Encr, config.TCP).MustBuild(),
		New("t5").
			Seq(config.TCP, config.Decr, config.Dser).
			Branch(CondHit,
				Sub().Seq(config.LdB),
				Sub().Seq(config.Ser, config.Encr, config.TCP).Tail("t6")).
			MustBuild(),
		New("f").Seq(config.Dcmp).Fork("wb").Seq(config.LdB).MustBuild(),
		New("tr").Seq(config.Dser).Trans(FmtJSON, FmtString).Seq(config.Dcmp).MustBuild(),
		New("func_req").
			Seq(config.TCP, config.Decr, config.RPC, config.Dser).
			Branch(CondCompressed,
				Sub().Trans(FmtJSON, FmtString).Seq(config.Dcmp),
				nil).
			Seq(config.LdB).
			MustBuild(),
	}
	for _, p := range seeds {
		data, err := p.Encode(m)
		if err != nil {
			f.Fatalf("seed %q: %v", p.Name, err)
		}
		f.Add(data, p.EncodedNibbles())
	}
	f.Fuzz(func(t *testing.T, data []byte, nibbles int) {
		p, err := Decode("fz", data, nibbles, m)
		if err != nil {
			return
		}
		// Every branch target of every flag set stays inside the
		// program, and the Position Mark ends on the End sentinel.
		for pc, in := range p.Instrs {
			for fl := Flags(0); fl < 32; fl++ {
				if in.Kind == OpBranch {
					if n := p.Next(pc, fl); n >= len(p.Instrs) {
						t.Fatalf("branch at %d jumps to %d of %d instructions", pc, n, len(p.Instrs))
					}
				}
			}
		}
		if last := p.Instrs[len(p.Instrs)-1]; last.Kind != OpEnd {
			t.Fatalf("decoded program ends in op %d, not End", last.Kind)
		}
		enc, err := p.Encode(m)
		if err != nil {
			t.Fatalf("decoded program does not encode: %v\n%s", err, p)
		}
		if got := p.EncodedNibbles(); got != nibbles {
			t.Fatalf("re-encoding is %d nibbles, decoded from %d", got, nibbles)
		}
		for i := 0; i < nibbles; i++ {
			if nibbleAt(enc, i) != nibbleAt(data, i) {
				t.Fatalf("nibble %d re-encodes as 0x%X, was 0x%X", i, nibbleAt(enc, i), nibbleAt(data, i))
			}
		}
		q, err := Decode("fz", enc, nibbles, m)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !samePrograms(p, q) {
			t.Fatalf("round trip mismatch:\n%s\n%s", p, q)
		}
	})
}

func nibbleAt(data []byte, i int) uint8 {
	if i%2 == 0 {
		return data[i/2] >> 4
	}
	return data[i/2] & 0xF
}
