// Package prog represents OG64 programs at the binary-optimizer level: a
// flat instruction image partitioned into functions, each with a control
// flow graph, dominator tree, natural-loop nest, and def-use chains. This
// is the substrate the paper's Alto-based analyses operate on.
package prog

import (
	"fmt"
	"sort"

	"opgate/internal/isa"
)

// Calling convention (Alpha-flavoured):
//
//	r0          return value
//	r16..r21    arguments a0..a5
//	r26         link register (return address), written by JSR
//	r29         global pointer (GP), pinned to the data-segment base by
//	            the runtime; programs must not write it
//	r30         stack pointer
//	r31 (rz)    always zero
const (
	RegRet  isa.Reg = 0
	RegArg0 isa.Reg = 16
	RegArg1 isa.Reg = 17
	RegArg5 isa.Reg = 21
	RegLink isa.Reg = 26
	RegGP   isa.Reg = 29
	RegSP   isa.Reg = 30

	// RegScratch is reserved for compiler-inserted code (the VRS guard
	// tests); hand-written kernels must not use it.
	RegScratch isa.Reg = 28
)

// NumArgRegs is the number of argument registers in the convention.
const NumArgRegs = 6

// Program is a complete OG64 binary: code, initialised data, and function
// metadata. Instruction indices are "addresses"; branch targets are indices
// into Ins.
type Program struct {
	Ins      []isa.Instruction
	Funcs    []*Func
	Data     []byte         // initial data segment image
	DataBase int64          // virtual address of Data[0]
	MemSize  int64          // total data memory size (>= DataBase+len(Data))
	Labels   map[string]int // label name -> instruction index
	Entry    int            // index into Funcs of the start function
}

// Func is a contiguous range [Start, End) of the instruction image.
type Func struct {
	Name   string
	Index  int // position in Program.Funcs
	Start  int
	End    int
	Blocks []*Block
	// blockOf maps instruction index (absolute) to block, valid after
	// BuildCFG.
	blockOf map[int]*Block
	// Calls lists the instruction indices of JSR instructions in this
	// function, with their callee function index (-1 if unresolved).
	Calls []CallSite

	loops   []*Loop
	anaProg *Program // set during Analyze; used by loop analysis
}

// CallSite records one JSR instruction and its callee.
type CallSite struct {
	InsIdx int
	Callee int // Program.Funcs index, or -1
}

// Block is a basic block: instructions [Start, End) with CFG edges.
type Block struct {
	ID    int
	Start int
	End   int
	Succs []*Block
	Preds []*Block
	Fn    *Func
	// Dominator-tree parent, set by BuildDominators.
	IDom *Block
	// Loop containing this block most deeply, set by FindLoops.
	Loop *Loop
	// RPO is the reverse-postorder number within the function.
	RPO int
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Terminator returns the final instruction of the block, or nil for an
// empty block.
func (b *Block) Terminator(p *Program) *isa.Instruction {
	if b.Len() == 0 {
		return nil
	}
	return &p.Ins[b.End-1]
}

// String identifies the block for diagnostics.
func (b *Block) String() string { return fmt.Sprintf("B%d[%d:%d)", b.ID, b.Start, b.End) }

// FuncOf returns the function containing instruction index idx, or nil.
func (p *Program) FuncOf(idx int) *Func {
	for _, f := range p.Funcs {
		if idx >= f.Start && idx < f.End {
			return f
		}
	}
	return nil
}

// BlockOf returns the basic block containing the absolute instruction
// index, or nil if outside the function or before BuildCFG.
func (f *Func) BlockOf(idx int) *Block {
	if f.blockOf == nil {
		return nil
	}
	return f.blockOf[idx]
}

// Analyze builds CFGs, dominators, loops and call sites for every function.
// It must be called after any structural change to the program.
func (p *Program) Analyze() error {
	for _, f := range p.Funcs {
		f.anaProg = p
		if err := p.buildCFG(f); err != nil {
			return fmt.Errorf("function %s: %w", f.Name, err)
		}
		buildDominators(f)
		findLoops(f)
	}
	p.resolveCalls()
	return nil
}

// buildCFG splits the function into basic blocks and connects edges.
func (p *Program) buildCFG(f *Func) error {
	f.Blocks = nil
	f.blockOf = make(map[int]*Block)
	if f.Start >= f.End {
		return fmt.Errorf("empty function")
	}

	// Leaders: function entry, branch targets within the function, and
	// instructions following any branch.
	leaders := map[int]bool{f.Start: true}
	for i := f.Start; i < f.End; i++ {
		in := &p.Ins[i]
		if !isa.IsBranch(in.Op) && in.Op != isa.OpHALT {
			continue
		}
		if i+1 < f.End {
			leaders[i+1] = true
		}
		switch in.Op {
		case isa.OpJSR, isa.OpRET, isa.OpHALT:
			// Calls fall through; returns/halts end the block with
			// no intra-function target.
		default:
			if in.Target < f.Start || in.Target >= f.End {
				return fmt.Errorf("instruction %d: branch target %d outside function [%d,%d)",
					i, in.Target, f.Start, f.End)
			}
			leaders[in.Target] = true
		}
	}

	starts := make([]int, 0, len(leaders))
	for s := range leaders {
		starts = append(starts, s)
	}
	sort.Ints(starts)

	for bi, s := range starts {
		end := f.End
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		b := &Block{ID: bi, Start: s, End: end, Fn: f}
		f.Blocks = append(f.Blocks, b)
		for i := s; i < end; i++ {
			f.blockOf[i] = b
		}
	}

	// Edges.
	for bi, b := range f.Blocks {
		last := b.Terminator(p)
		fallthru := func() {
			if bi+1 < len(f.Blocks) {
				connect(b, f.Blocks[bi+1])
			}
		}
		if last == nil {
			fallthru()
			continue
		}
		switch {
		case last.Op == isa.OpBR:
			connect(b, f.blockOf[last.Target])
		case last.Op == isa.OpRET || last.Op == isa.OpHALT:
			// no successors
		case last.Op == isa.OpJSR:
			fallthru() // call returns to the next instruction
		case isa.IsCondBranch(last.Op):
			connect(b, f.blockOf[last.Target])
			fallthru()
		default:
			fallthru()
		}
	}

	computeRPO(f)
	return nil
}

func connect(from, to *Block) {
	if to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// computeRPO assigns reverse-postorder numbers from the entry block.
func computeRPO(f *Func) {
	seen := make([]bool, len(f.Blocks))
	order := make([]*Block, 0, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	if len(f.Blocks) > 0 {
		dfs(f.Blocks[0])
	}
	// Unreachable blocks get numbers after the reachable ones.
	n := 0
	for i := len(order) - 1; i >= 0; i-- {
		order[i].RPO = n
		n++
	}
	for _, b := range f.Blocks {
		if !seen[b.ID] {
			b.RPO = n
			n++
		}
	}
}

// RPOBlocks returns the function's blocks sorted by reverse postorder.
func (f *Func) RPOBlocks() []*Block {
	out := make([]*Block, len(f.Blocks))
	copy(out, f.Blocks)
	sort.Slice(out, func(i, j int) bool { return out[i].RPO < out[j].RPO })
	return out
}

// resolveCalls records call sites and callees for each function.
func (p *Program) resolveCalls() {
	for _, f := range p.Funcs {
		f.Calls = f.Calls[:0]
		for i := f.Start; i < f.End; i++ {
			in := &p.Ins[i]
			if in.Op != isa.OpJSR {
				continue
			}
			callee := -1
			if cf := p.FuncOf(in.Target); cf != nil {
				callee = cf.Index
			}
			f.Calls = append(f.Calls, CallSite{InsIdx: i, Callee: callee})
		}
	}
}

// Clone returns a deep copy of the program (instructions, functions, data).
// Analysis structures are rebuilt on the clone.
func (p *Program) Clone() *Program {
	q := &Program{
		Ins:      append([]isa.Instruction(nil), p.Ins...),
		Data:     append([]byte(nil), p.Data...),
		DataBase: p.DataBase,
		MemSize:  p.MemSize,
		Entry:    p.Entry,
		Labels:   make(map[string]int, len(p.Labels)),
	}
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	for _, f := range p.Funcs {
		q.Funcs = append(q.Funcs, &Func{
			Name:  f.Name,
			Index: f.Index,
			Start: f.Start,
			End:   f.End,
		})
	}
	if err := q.Analyze(); err != nil {
		// The source program analysed successfully; a clone cannot fail.
		panic("prog: clone analysis failed: " + err.Error())
	}
	return q
}

// Validate performs structural sanity checks used by tests and after
// transformations.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("no functions")
	}
	prevEnd := 0
	for i, f := range p.Funcs {
		if f.Index != i {
			return fmt.Errorf("function %s has index %d, want %d", f.Name, f.Index, i)
		}
		if f.Start != prevEnd {
			return fmt.Errorf("function %s starts at %d, want %d (functions must tile the image)", f.Name, f.Start, prevEnd)
		}
		if f.End <= f.Start {
			return fmt.Errorf("function %s is empty", f.Name)
		}
		prevEnd = f.End
	}
	if prevEnd != len(p.Ins) {
		return fmt.Errorf("functions cover [0,%d), image has %d instructions", prevEnd, len(p.Ins))
	}
	for i := range p.Ins {
		in := &p.Ins[i]
		if isa.IsBranch(in.Op) && in.Op != isa.OpRET {
			if in.Target < 0 || in.Target >= len(p.Ins) {
				return fmt.Errorf("instruction %d (%s): target out of image", i, in)
			}
		}
	}
	return nil
}
