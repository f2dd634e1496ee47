// Package trace implements AccelFlow's central abstraction: Traces of
// Accelerators (paper §IV). A trace is a software-built program listing
// the accelerators to invoke in sequence, optionally containing branch
// conditions resolved on the fly by output dispatchers, data-format
// transformations, fork points, and an ATM tail address chaining to the
// next trace.
//
// The package provides the paper's builder API (§V-4: seq / branch /
// trans), a compiler from the builder tree to a flat program with an
// explicit Position Mark (program counter), and the 4-bit nibble binary
// encoding with the 8-byte size limit and automatic subtrace splitting.
package trace

import (
	"fmt"
	"strings"

	"accelflow/internal/config"
)

// Cond names a branch condition. The paper's conditions are simple
// predicates over a few bits of the payload (§VII-B.2 lists Compressed?,
// Exception?, Hit?, and Found?; §IV-B adds C-Compressed for T6).
type Cond uint8

const (
	// CondNone marks the absence of a condition.
	CondNone Cond = iota
	// CondCompressed tests the payload's "compressed" flag (T1, T5, T6).
	CondCompressed
	// CondHit tests whether a DB-cache read hit (T5).
	CondHit
	// CondFound tests whether a DB read found the record (T6).
	CondFound
	// CondException tests the response's exception flag (T7, T10).
	CondException
	// CondCCompressed tests whether the DB cache stores compressed data (T6).
	CondCCompressed
	numConds
)

var condNames = []string{"None", "Compressed?", "Hit?", "Found?", "Exception?", "C-Compressed?"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("Cond(%d)", uint8(c))
}

// Flags carries the payload bits branch conditions test. One bit per
// condition; the workload model draws them per request.
type Flags uint8

// Flag bit positions mirror the Cond values.
const (
	FlagCompressed Flags = 1 << iota
	FlagHit
	FlagFound
	FlagException
	FlagCCompressed
)

// Eval resolves the condition against the payload flags. This is the
// "few bits in the payload, simple comparisons" logic of §III-Q2.
func (c Cond) Eval(f Flags) bool {
	switch c {
	case CondCompressed:
		return f&FlagCompressed != 0
	case CondHit:
		return f&FlagHit != 0
	case CondFound:
		return f&FlagFound != 0
	case CondException:
		return f&FlagException != 0
	case CondCCompressed:
		return f&FlagCCompressed != 0
	default:
		return false
	}
}

// Format names a payload data format for transformation fields (§V-2:
// "changing between string, BSON, JSON, and similar formats").
type Format uint8

const (
	// FmtWire is the serialized on-the-wire representation.
	FmtWire Format = iota
	// FmtString is a flat string representation.
	FmtString
	// FmtJSON is a JSON document.
	FmtJSON
	// FmtBSON is a BSON document.
	FmtBSON
	numFormats
)

var fmtNames = []string{"wire", "string", "JSON", "BSON"}

func (f Format) String() string {
	if int(f) < len(fmtNames) {
		return fmtNames[f]
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// OpKind distinguishes the node types of a trace program.
type OpKind uint8

const (
	// OpInvoke runs one accelerator.
	OpInvoke OpKind = iota
	// OpBranch resolves a condition and jumps to one of two targets.
	OpBranch
	// OpTrans transforms the payload's data format in the output
	// dispatcher's Data Transform Engine.
	OpTrans
	// OpFork spawns a side trace (by ATM name) that proceeds
	// independently, e.g. T6's parallel write-back to the DB cache
	// while the data is also passed to the CPU.
	OpFork
	// OpTail chains to the next trace stored in the ATM (the asterisk
	// in the paper's figures). Always the last instruction.
	OpTail
	// OpEnd terminates the trace: results go to memory and the
	// initiating core is notified.
	OpEnd
)

// node is one element of the builder tree.
type node struct {
	kind     OpKind
	accel    config.AccelKind
	cond     Cond
	onTrue   []node
	onFalse  []node
	src, dst Format
	tail     string // ATM symbolic name for OpTail / OpFork
}

// Builder assembles a trace using the paper's API: Seq, Branch, Trans
// (§V-4), plus Fork and Tail for the ATM-chained continuations of
// Table II. Builders are single-use: Build finalizes the trace.
type Builder struct {
	name  string
	nodes []node
	err   error
}

// New starts a trace with the given registration name (the name passed
// to run_trace in the paper's Listing 2).
func New(name string) *Builder { return &Builder{name: name} }

// Sub starts an anonymous sub-sequence for use as a branch arm.
func Sub() *Builder { return &Builder{name: ""} }

// Seq appends a linear chain of accelerator invocations.
func (b *Builder) Seq(accels ...config.AccelKind) *Builder {
	for _, a := range accels {
		if a >= config.NumAccelKinds {
			b.fail(fmt.Errorf("trace %q: invalid accelerator id %d", b.name, a))
			return b
		}
		b.nodes = append(b.nodes, node{kind: OpInvoke, accel: a})
	}
	return b
}

// Branch appends a conditional: if cond holds, the onTrue arm runs,
// otherwise the onFalse arm; both merge into the following nodes.
// Either arm may be nil (empty).
func (b *Builder) Branch(cond Cond, onTrue, onFalse *Builder) *Builder {
	if cond == CondNone || cond >= numConds {
		b.fail(fmt.Errorf("trace %q: invalid branch condition %v", b.name, cond))
		return b
	}
	n := node{kind: OpBranch, cond: cond}
	if onTrue != nil {
		if onTrue.err != nil {
			b.fail(onTrue.err)
			return b
		}
		n.onTrue = onTrue.nodes
	}
	if onFalse != nil {
		if onFalse.err != nil {
			b.fail(onFalse.err)
			return b
		}
		n.onFalse = onFalse.nodes
	}
	b.nodes = append(b.nodes, n)
	return b
}

// Trans appends a data-format transformation executed by the previous
// accelerator's output dispatcher.
func (b *Builder) Trans(src, dst Format) *Builder {
	if src >= numFormats || dst >= numFormats {
		b.fail(fmt.Errorf("trace %q: invalid transform %v->%v", b.name, src, dst))
		return b
	}
	if src == dst {
		b.fail(fmt.Errorf("trace %q: transform with identical formats %v", b.name, src))
		return b
	}
	b.nodes = append(b.nodes, node{kind: OpTrans, src: src, dst: dst})
	return b
}

// Fork appends a fork to the named ATM trace; the forked trace runs
// independently while this one continues.
func (b *Builder) Fork(atmName string) *Builder {
	if atmName == "" {
		b.fail(fmt.Errorf("trace %q: fork needs an ATM name", b.name))
		return b
	}
	b.nodes = append(b.nodes, node{kind: OpFork, tail: atmName})
	return b
}

// Tail sets the ATM continuation executed when this trace completes
// (the paper's asterisk). It must be the final call before Build.
func (b *Builder) Tail(atmName string) *Builder {
	if atmName == "" {
		b.fail(fmt.Errorf("trace %q: tail needs an ATM name", b.name))
		return b
	}
	b.nodes = append(b.nodes, node{kind: OpTail, tail: atmName})
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build compiles the builder tree into an executable Program. It
// returns an error for empty or malformed traces (e.g. ops after Tail).
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("trace %q: empty", b.name)
	}
	p := &Program{Name: b.name}
	if err := compile(p, b.nodes); err != nil {
		return nil, err
	}
	// Every program ends with an explicit OpEnd sentinel. Arms that end
	// in OpTail terminate there; paths that fall off the end reach the
	// sentinel and notify the CPU.
	if last := p.Instrs[len(p.Instrs)-1]; last.Kind != OpEnd {
		p.Instrs = append(p.Instrs, Instr{Kind: OpEnd})
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; intended for the static
// catalog where a malformed trace is a programming bug.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Instr is one flat instruction of a compiled trace program. The
// Position Mark of the paper is the index into Instrs.
type Instr struct {
	Kind  OpKind
	Accel config.AccelKind // OpInvoke

	Cond        Cond // OpBranch
	TrueTarget  int  // PC when the condition holds
	FalseTarget int  // PC when it does not

	Src, Dst Format // OpTrans

	TailName string // OpTail / OpFork symbolic ATM reference
}

// Program is a compiled trace: a flat instruction list ending in OpEnd
// or OpTail.
type Program struct {
	Name   string
	Instrs []Instr
}

// compile flattens the node tree into p.Instrs with branch targets.
func compile(p *Program, nodes []node) error {
	for _, n := range nodes {
		switch n.kind {
		case OpInvoke:
			p.Instrs = append(p.Instrs, Instr{Kind: OpInvoke, Accel: n.accel})
		case OpTrans:
			p.Instrs = append(p.Instrs, Instr{Kind: OpTrans, Src: n.src, Dst: n.dst})
		case OpFork:
			p.Instrs = append(p.Instrs, Instr{Kind: OpFork, TailName: n.tail})
		case OpTail:
			p.Instrs = append(p.Instrs, Instr{Kind: OpTail, TailName: n.tail})
		case OpBranch:
			bIdx := len(p.Instrs)
			p.Instrs = append(p.Instrs, Instr{Kind: OpBranch, Cond: n.cond})
			if err := compile(p, n.onTrue); err != nil {
				return err
			}
			// Jump over the false arm at the end of the true arm: we
			// encode it by giving the branch explicit targets and
			// inserting a join marker via target bookkeeping. A
			// synthetic unconditional jump is modeled as a branch with
			// equal targets.
			jmpIdx := len(p.Instrs)
			p.Instrs = append(p.Instrs, Instr{Kind: OpBranch, Cond: CondNone})
			falseStart := len(p.Instrs)
			if err := compile(p, n.onFalse); err != nil {
				return err
			}
			join := len(p.Instrs)
			p.Instrs[bIdx].TrueTarget = bIdx + 1
			p.Instrs[bIdx].FalseTarget = falseStart
			p.Instrs[jmpIdx].TrueTarget = join
			p.Instrs[jmpIdx].FalseTarget = join
		default:
			return fmt.Errorf("trace %q: unknown node kind %d", p.Name, n.kind)
		}
	}
	return nil
}

func (p *Program) validate() error {
	for i, in := range p.Instrs {
		switch in.Kind {
		case OpBranch:
			if in.TrueTarget < 0 || in.TrueTarget >= len(p.Instrs) ||
				in.FalseTarget < 0 || in.FalseTarget >= len(p.Instrs) {
				return fmt.Errorf("trace %q: branch at %d has out-of-range target", p.Name, i)
			}
		}
	}
	if p.Instrs[len(p.Instrs)-1].Kind != OpEnd {
		return fmt.Errorf("trace %q: does not end with OpEnd sentinel", p.Name)
	}
	return nil
}

// Next advances the Position Mark from pc given payload flags,
// returning the next pc. OpInvoke/OpTrans/OpFork fall through; OpBranch
// jumps. Callers must not call Next on OpTail/OpEnd.
func (p *Program) Next(pc int, f Flags) int {
	in := p.Instrs[pc]
	if in.Kind == OpBranch {
		if in.Cond == CondNone || in.Cond.Eval(f) {
			return in.TrueTarget
		}
		return in.FalseTarget
	}
	return pc + 1
}

// HasBranch reports whether the program contains at least one real
// conditional (synthetic joins with CondNone do not count).
func (p *Program) HasBranch() bool {
	for _, in := range p.Instrs {
		if in.Kind == OpBranch && in.Cond != CondNone {
			return true
		}
	}
	return false
}

// Invocations walks the program with the given flags and returns the
// accelerator sequence executed, the transforms crossed, and the tail
// name ("" if the trace ends).
func (p *Program) Invocations(f Flags) (accels []config.AccelKind, transforms int, tail string) {
	pc := 0
	for pc < len(p.Instrs) {
		in := p.Instrs[pc]
		switch in.Kind {
		case OpInvoke:
			accels = append(accels, in.Accel)
		case OpTrans:
			transforms++
		case OpTail:
			return accels, transforms, in.TailName
		case OpEnd:
			return accels, transforms, ""
		}
		pc = p.Next(pc, f)
	}
	return accels, transforms, ""
}

// String renders a human-readable disassembly.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %q:\n", p.Name)
	for i, in := range p.Instrs {
		switch in.Kind {
		case OpInvoke:
			fmt.Fprintf(&sb, "  %2d: invoke %v\n", i, in.Accel)
		case OpBranch:
			if in.Cond == CondNone {
				fmt.Fprintf(&sb, "  %2d: jump -> %d\n", i, in.TrueTarget)
			} else {
				fmt.Fprintf(&sb, "  %2d: branch %v ? %d : %d\n", i, in.Cond, in.TrueTarget, in.FalseTarget)
			}
		case OpTrans:
			fmt.Fprintf(&sb, "  %2d: trans %v -> %v\n", i, in.Src, in.Dst)
		case OpFork:
			fmt.Fprintf(&sb, "  %2d: fork %q\n", i, in.TailName)
		case OpTail:
			fmt.Fprintf(&sb, "  %2d: tail %q\n", i, in.TailName)
		case OpEnd:
			fmt.Fprintf(&sb, "  %2d: end\n", i)
		}
	}
	return sb.String()
}
