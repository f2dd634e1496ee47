package trace

import (
	"fmt"

	"accelflow/internal/config"
)

// Binary encoding (paper §IV-A): 4 bits per accelerator, a maximum
// trace size of 8 bytes (16 nibbles). Nibble codes 0x0-0x8 are the nine
// accelerator kinds; the remaining codes are control markers.
//
//	invoke  <accel>                      1 nibble
//	branch  0x9 <cond> <falseTarget>     3 nibbles (trueTarget is PC+1)
//	jump    0xD <target>                 2 nibbles (compiled join)
//	trans   0xA <src<<2|dst>             2 nibbles
//	tail    0xB <addrHi> <addrLo>        3 nibbles (8-bit ATM address)
//	fork    0xC <addrHi> <addrLo>        3 nibbles
//	end     0xF                          1 nibble
//
// Branch and jump targets are instruction indices, so an encodable
// program has at most 16 instructions and all targets below 16.
const (
	nibBranch = 0x9
	nibTrans  = 0xA
	nibTail   = 0xB
	nibFork   = 0xC
	nibJump   = 0xD
	nibEnd    = 0xF

	// MaxTraceBytes is the paper's 8-byte trace size limit.
	MaxTraceBytes = 8
	// MaxNibbles is the corresponding nibble budget.
	MaxNibbles = 2 * MaxTraceBytes
)

// SymbolTable maps symbolic ATM names to 8-bit ATM addresses, assigned
// by the engine's ATM when traces are registered.
type SymbolTable interface {
	// AddrOf returns the ATM address for a registered trace name.
	AddrOf(name string) (uint8, bool)
	// NameOf is the inverse mapping, used when decoding.
	NameOf(addr uint8) (string, bool)
}

// MapSymbols is a simple in-memory SymbolTable.
type MapSymbols struct {
	byName map[string]uint8
	byAddr map[uint8]string
}

// NewMapSymbols returns an empty symbol table.
func NewMapSymbols() *MapSymbols {
	return &MapSymbols{byName: map[string]uint8{}, byAddr: map[uint8]string{}}
}

// Register assigns the next free address to name (idempotent).
func (m *MapSymbols) Register(name string) (uint8, error) {
	if a, ok := m.byName[name]; ok {
		return a, nil
	}
	if len(m.byName) >= 256 {
		return 0, fmt.Errorf("trace: ATM symbol table full (256 entries)")
	}
	a := uint8(len(m.byName))
	m.byName[name] = a
	m.byAddr[a] = name
	return a, nil
}

// AddrOf implements SymbolTable.
func (m *MapSymbols) AddrOf(name string) (uint8, bool) { a, ok := m.byName[name]; return a, ok }

// NameOf implements SymbolTable.
func (m *MapSymbols) NameOf(addr uint8) (string, bool) { n, ok := m.byAddr[addr]; return n, ok }

// nibbleCount returns the encoded size of one instruction in nibbles.
func nibbleCount(in Instr) int {
	switch in.Kind {
	case OpInvoke, OpEnd:
		return 1
	case OpTrans:
		return 2
	case OpBranch:
		if in.Cond == CondNone {
			return 2 // jump
		}
		return 3
	case OpTail, OpFork:
		return 3
	}
	return 0
}

// EncodedNibbles returns the program's total encoded size in nibbles.
func (p *Program) EncodedNibbles() int {
	n := 0
	for _, in := range p.Instrs {
		n += nibbleCount(in)
	}
	return n
}

// EncodedBytes returns the encoded size in bytes (rounded up). This is
// the trace payload charged to inter-accelerator transfers.
func (p *Program) EncodedBytes() int { return (p.EncodedNibbles() + 1) / 2 }

// Encode packs the program into its binary form. It fails if the
// program exceeds the 8-byte limit (callers should Split first), has
// more than 16 instructions, or references ATM names missing from the
// symbol table.
func (p *Program) Encode(syms SymbolTable) ([]byte, error) {
	if len(p.Instrs) > MaxNibbles {
		return nil, fmt.Errorf("trace %q: %d instructions exceed the 16-instruction encoding limit", p.Name, len(p.Instrs))
	}
	if n := p.EncodedNibbles(); n > MaxNibbles {
		return nil, fmt.Errorf("trace %q: %d nibbles exceed the %d-byte limit; split into subtraces", p.Name, n, MaxTraceBytes)
	}
	var nibs []uint8
	emit := func(vals ...uint8) {
		for _, v := range vals {
			nibs = append(nibs, v&0xF)
		}
	}
	for i, in := range p.Instrs {
		switch in.Kind {
		case OpInvoke:
			emit(uint8(in.Accel))
		case OpEnd:
			emit(nibEnd)
		case OpTrans:
			emit(nibTrans, uint8(in.Src)<<2|uint8(in.Dst))
		case OpBranch:
			if in.Cond == CondNone {
				if in.TrueTarget >= 16 {
					return nil, fmt.Errorf("trace %q: jump target %d at %d not encodable", p.Name, in.TrueTarget, i)
				}
				emit(nibJump, uint8(in.TrueTarget))
			} else {
				if in.TrueTarget != i+1 {
					return nil, fmt.Errorf("trace %q: branch at %d has non-fallthrough true target %d", p.Name, i, in.TrueTarget)
				}
				if in.FalseTarget >= 16 {
					return nil, fmt.Errorf("trace %q: branch target %d at %d not encodable", p.Name, in.FalseTarget, i)
				}
				emit(nibBranch, uint8(in.Cond), uint8(in.FalseTarget))
			}
		case OpTail, OpFork:
			addr, ok := syms.AddrOf(in.TailName)
			if !ok {
				return nil, fmt.Errorf("trace %q: ATM name %q not registered", p.Name, in.TailName)
			}
			code := uint8(nibTail)
			if in.Kind == OpFork {
				code = nibFork
			}
			emit(code, addr>>4, addr&0xF)
		default:
			return nil, fmt.Errorf("trace %q: unencodable op %d", p.Name, in.Kind)
		}
	}
	// Pack nibbles into bytes, high nibble first.
	out := make([]byte, (len(nibs)+1)/2)
	for i, v := range nibs {
		if i%2 == 0 {
			out[i/2] = v << 4
		} else {
			out[i/2] |= v
		}
	}
	return out, nil
}

// Decode reconstructs a Program from its binary form. nibbles is the
// exact nibble count (the byte form cannot distinguish a trailing
// padding nibble from an instruction). It accepts only what Encode can
// produce from a valid program: at most 16 nibbles, real branch
// conditions, in-range targets, and a final End.
func Decode(name string, data []byte, nibbles int, syms SymbolTable) (*Program, error) {
	if nibbles > 2*len(data) || nibbles < 0 {
		return nil, fmt.Errorf("trace: nibble count %d exceeds data length %d bytes", nibbles, len(data))
	}
	if nibbles > MaxNibbles {
		return nil, fmt.Errorf("trace %q: %d nibbles exceed the %d-byte limit", name, nibbles, MaxTraceBytes)
	}
	nib := func(i int) uint8 {
		b := data[i/2]
		if i%2 == 0 {
			return b >> 4
		}
		return b & 0xF
	}
	p := &Program{Name: name}
	for i := 0; i < nibbles; {
		code := nib(i)
		switch {
		case code <= uint8(config.LdB):
			p.Instrs = append(p.Instrs, Instr{Kind: OpInvoke, Accel: config.AccelKind(code)})
			i++
		case code == nibEnd:
			p.Instrs = append(p.Instrs, Instr{Kind: OpEnd})
			i++
		case code == nibTrans:
			if i+1 >= nibbles {
				return nil, fmt.Errorf("trace %q: truncated trans at nibble %d", name, i)
			}
			v := nib(i + 1)
			p.Instrs = append(p.Instrs, Instr{Kind: OpTrans, Src: Format(v >> 2), Dst: Format(v & 0x3)})
			i += 2
		case code == nibJump:
			if i+1 >= nibbles {
				return nil, fmt.Errorf("trace %q: truncated jump at nibble %d", name, i)
			}
			t := int(nib(i + 1))
			p.Instrs = append(p.Instrs, Instr{Kind: OpBranch, Cond: CondNone, TrueTarget: t, FalseTarget: t})
			i += 2
		case code == nibBranch:
			if i+2 >= nibbles {
				return nil, fmt.Errorf("trace %q: truncated branch at nibble %d", name, i)
			}
			cond := Cond(nib(i + 1))
			if cond == CondNone || cond >= numConds {
				return nil, fmt.Errorf("trace %q: invalid branch condition %d at nibble %d", name, cond, i+1)
			}
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpBranch, Cond: cond,
				TrueTarget: len(p.Instrs) + 1, FalseTarget: int(nib(i + 2)),
			})
			i += 3
		case code == nibTail || code == nibFork:
			if i+2 >= nibbles {
				return nil, fmt.Errorf("trace %q: truncated tail/fork at nibble %d", name, i)
			}
			addr := nib(i+1)<<4 | nib(i+2)
			tn, ok := syms.NameOf(addr)
			if !ok {
				return nil, fmt.Errorf("trace %q: unknown ATM address %d", name, addr)
			}
			kind := OpTail
			if code == nibFork {
				kind = OpFork
			}
			p.Instrs = append(p.Instrs, Instr{Kind: kind, TailName: tn})
			i += 3
		default:
			return nil, fmt.Errorf("trace %q: invalid nibble 0x%X at %d", name, code, i)
		}
	}
	if len(p.Instrs) == 0 {
		return nil, fmt.Errorf("trace %q: empty encoding", name)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Split divides a branch-free program that exceeds the 8-byte limit
// into a chain of subtraces linked through ATM tails, as the paper
// prescribes for long sequences. Programs containing branches must be
// split manually at divergence points (the paper does the same for the
// error subtraces of T6/T7/T10). The returned programs are named
// name#0, name#1, ...; each but the last ends in a Tail to the next.
func (p *Program) Split() ([]*Program, error) {
	if p.EncodedNibbles() <= MaxNibbles && len(p.Instrs) <= MaxNibbles {
		return []*Program{p}, nil
	}
	for _, in := range p.Instrs {
		if in.Kind == OpBranch {
			return nil, fmt.Errorf("trace %q: cannot auto-split a program with branches", p.Name)
		}
	}
	var out []*Program
	cur := &Program{Name: fmt.Sprintf("%s#%d", p.Name, 0)}
	budget := MaxNibbles - 3 - 1 // reserve room for a tail + slack
	used := 0
	for _, in := range p.Instrs {
		if in.Kind == OpEnd {
			continue
		}
		n := nibbleCount(in)
		if used+n > budget {
			next := fmt.Sprintf("%s#%d", p.Name, len(out)+1)
			cur.Instrs = append(cur.Instrs,
				Instr{Kind: OpTail, TailName: next},
				Instr{Kind: OpEnd})
			out = append(out, cur)
			cur = &Program{Name: next}
			used = 0
		}
		cur.Instrs = append(cur.Instrs, in)
		used += n
	}
	cur.Instrs = append(cur.Instrs, Instr{Kind: OpEnd})
	out = append(out, cur)
	return out, nil
}
