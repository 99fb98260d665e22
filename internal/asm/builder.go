// Package asm builds OG64 programs: programmatically via Builder, or from
// textual assembly via Assemble. It also disassembles programs back to
// text. Workloads and tests construct programs with Builder; the cmd tools
// use the textual form.
package asm

import (
	"fmt"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// DefaultDataBase is the virtual address where the data segment starts.
// It sits above 2^32 so that data addresses are genuinely 33-bit-plus
// values, reproducing the paper's observation that memory addresses need
// 5 bytes (Fig. 12's peak). Programs address data relative to the global
// pointer register (prog.RegGP), which the runtime pins to this base.
const DefaultDataBase = int64(1) << 32

// DefaultMemSize is the default size of the flat data memory (code is not
// addressable). The stack pointer starts at the top and grows down.
const DefaultMemSize = 8 << 20

// Builder assembles a program incrementally. Typical use:
//
//	b := asm.NewBuilder()
//	buf := b.Space("buf", 256)
//	b.Func("main")
//	b.LoadImm(r1, 0)
//	b.Label("loop")
//	...
//	b.CondBranch(isa.OpBNE, r4, "loop")
//	b.Halt()
//	p, err := b.Build()
type Builder struct {
	ins      []isa.Instruction
	funcs    []*prog.Func
	labels   map[string]int
	fixups   []fixup
	data     []byte
	dataSyms map[string]int64
	err      error
}

type fixup struct {
	insIdx int
	label  string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		labels:   make(map[string]int),
		dataSyms: make(map[string]int64),
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error recorded by the builder.
func (b *Builder) Err() error { return b.err }

// Func starts a new function at the current position.
func (b *Builder) Func(name string) {
	if len(b.funcs) > 0 {
		last := b.funcs[len(b.funcs)-1]
		last.End = len(b.ins)
		if last.End == last.Start {
			b.fail("asm: function %s is empty", last.Name)
		}
	}
	b.funcs = append(b.funcs, &prog.Func{Name: name, Index: len(b.funcs), Start: len(b.ins)})
	b.Label(name)
}

// Label binds a name to the next instruction index.
func (b *Builder) Label(name string) {
	if prev, dup := b.labels[name]; dup {
		b.fail("asm: duplicate label %q (first at %d)", name, prev)
		return
	}
	b.labels[name] = len(b.ins)
}

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in isa.Instruction) int {
	b.ins = append(b.ins, in)
	return len(b.ins) - 1
}

// Len returns the number of instructions emitted so far — the index the
// next emitted instruction will occupy. Phase-structured generators
// use it to record the instruction range each phase body occupies.
func (b *Builder) Len() int { return len(b.ins) }

// --- Data segment -----------------------------------------------------

// Space reserves n zero bytes in the data segment under a symbol and
// returns its virtual address.
func (b *Builder) Space(sym string, n int) int64 {
	addr := DefaultDataBase + int64(len(b.data))
	b.data = append(b.data, make([]byte, n)...)
	b.defineData(sym, addr)
	return addr
}

// Bytes places initialised bytes in the data segment.
func (b *Builder) Bytes(sym string, vals []byte) int64 {
	addr := DefaultDataBase + int64(len(b.data))
	b.data = append(b.data, vals...)
	b.defineData(sym, addr)
	return addr
}

// Words places 64-bit little-endian values in the data segment.
func (b *Builder) Words(sym string, vals []int64) int64 {
	addr := DefaultDataBase + int64(len(b.data))
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			b.data = append(b.data, byte(uint64(v)>>(8*i)))
		}
	}
	b.defineData(sym, addr)
	return addr
}

func (b *Builder) defineData(sym string, addr int64) {
	if sym == "" {
		return
	}
	if _, dup := b.dataSyms[sym]; dup {
		b.fail("asm: duplicate data symbol %q", sym)
		return
	}
	b.dataSyms[sym] = addr
}

// DataAddr returns the address of a data symbol.
func (b *Builder) DataAddr(sym string) int64 {
	addr, ok := b.dataSyms[sym]
	if !ok {
		b.fail("asm: unknown data symbol %q", sym)
	}
	return addr
}

// --- Instruction helpers ----------------------------------------------

// LoadImm materialises an arbitrary 64-bit constant into rd. Values that
// fit 32 bits signed take one LDA; wider values use LDA/SLL/OR sequences.
func (b *Builder) LoadImm(rd isa.Reg, v int64) {
	if v >= -(1<<31) && v < 1<<31 {
		b.Emit(isa.Instruction{Op: isa.OpLDA, Width: isa.W64, Rd: rd, Ra: isa.ZeroReg, Imm: v})
		return
	}
	// Build from the top: load the high 32 bits, then shift in the low
	// half as two 16-bit chunks (OR immediates are non-negative, so no
	// sign-extension hazard).
	b.LoadImm(rd, v>>32)
	b.Emit(isa.Instruction{Op: isa.OpSLL, Width: isa.W64, Rd: rd, Ra: rd, Imm: 16, HasImm: true})
	b.Emit(isa.Instruction{Op: isa.OpOR, Width: isa.W64, Rd: rd, Ra: rd, Imm: (v >> 16) & 0xFFFF, HasImm: true})
	b.Emit(isa.Instruction{Op: isa.OpSLL, Width: isa.W64, Rd: rd, Ra: rd, Imm: 16, HasImm: true})
	b.Emit(isa.Instruction{Op: isa.OpOR, Width: isa.W64, Rd: rd, Ra: rd, Imm: v & 0xFFFF, HasImm: true})
}

// Lda emits rd = ra + imm.
func (b *Builder) Lda(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instruction{Op: isa.OpLDA, Width: isa.W64, Rd: rd, Ra: ra, Imm: imm})
}

// LoadAddr loads the address of a data symbol, GP-relative (the symbol's
// offset from the data base fits the immediate field; the full 33-bit-plus
// address forms by adding the pinned global pointer).
func (b *Builder) LoadAddr(rd isa.Reg, sym string) {
	b.Lda(rd, prog.RegGP, b.DataAddr(sym)-DefaultDataBase)
}

// Op3 emits a three-register ALU operation.
func (b *Builder) Op3(op isa.Op, w isa.Width, rd, ra, rb isa.Reg) {
	b.Emit(isa.Instruction{Op: op, Width: w, Rd: rd, Ra: ra, Rb: rb})
}

// OpI emits an ALU operation with an immediate second operand.
func (b *Builder) OpI(op isa.Op, w isa.Width, rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Instruction{Op: op, Width: w, Rd: rd, Ra: ra, Imm: imm, HasImm: true})
}

// Load emits rd = mem[ra+off] at the given width.
func (b *Builder) Load(w isa.Width, rd, ra isa.Reg, off int64) {
	b.Emit(isa.Instruction{Op: isa.OpLD, Width: w, Rd: rd, Ra: ra, Imm: off})
}

// Store emits mem[ra+off] = rb at the given width.
func (b *Builder) Store(w isa.Width, rb, ra isa.Reg, off int64) {
	b.Emit(isa.Instruction{Op: isa.OpST, Width: w, Rb: rb, Ra: ra, Imm: off})
}

// Branch emits an unconditional branch to a label.
func (b *Builder) Branch(label string) {
	idx := b.Emit(isa.Instruction{Op: isa.OpBR})
	b.fixups = append(b.fixups, fixup{idx, label})
}

// CondBranch emits a conditional branch on ra to a label.
func (b *Builder) CondBranch(op isa.Op, ra isa.Reg, label string) {
	if !isa.IsCondBranch(op) {
		b.fail("asm: %v is not a conditional branch", op)
		return
	}
	idx := b.Emit(isa.Instruction{Op: op, Ra: ra})
	b.fixups = append(b.fixups, fixup{idx, label})
}

// Call emits a JSR to a function label, linking in RegLink.
func (b *Builder) Call(label string) {
	idx := b.Emit(isa.Instruction{Op: isa.OpJSR, Rd: prog.RegLink})
	b.fixups = append(b.fixups, fixup{idx, label})
}

// Ret emits a return through RegLink.
func (b *Builder) Ret() {
	b.Emit(isa.Instruction{Op: isa.OpRET, Ra: prog.RegLink})
}

// Halt emits program termination.
func (b *Builder) Halt() { b.Emit(isa.Instruction{Op: isa.OpHALT}) }

// Out emits an output of ra's low w bytes.
func (b *Builder) Out(w isa.Width, ra isa.Reg) {
	b.Emit(isa.Instruction{Op: isa.OpOUT, Width: w, Ra: ra})
}

// Build finalises the program: closes the last function, resolves label
// fixups, and runs structural analysis.
func (b *Builder) Build() (*prog.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.funcs) == 0 {
		return nil, fmt.Errorf("asm: no functions")
	}
	last := b.funcs[len(b.funcs)-1]
	last.End = len(b.ins)
	for _, fx := range b.fixups {
		target, ok := b.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", fx.label)
		}
		b.ins[fx.insIdx].Target = target
	}
	p := &prog.Program{
		Ins:      b.ins,
		Funcs:    b.funcs,
		Data:     b.data,
		DataBase: DefaultDataBase,
		MemSize:  DefaultMemSize,
		Labels:   b.labels,
	}
	// Default widths: any zero Width on a width-bearing op means W64.
	for i := range p.Ins {
		if p.Ins[i].Width == 0 {
			p.Ins[i].Width = isa.W64
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Analyze(); err != nil {
		return nil, err
	}
	return p, nil
}
