package prog

import (
	"math/bits"
	"slices"

	"opgate/internal/isa"
)

// Def-use analysis at the register level within one function, via classic
// reaching definitions over basic blocks. Definitions are (instruction
// index, register) pairs; JSR kills the caller-saved state conservatively
// (return and argument registers may be rewritten by the callee).

// DefUse holds reaching-definition chains for one function.
type DefUse struct {
	Fn *Func
	// UD maps an instruction's operand use to its reaching definitions:
	// UD[insIdx][reg] = sorted list of defining instruction indices, where
	// -1 denotes "live-in to the function" (argument or unknown).
	UD map[int]map[isa.Reg][]int
	// DU maps a defining instruction to the instructions using its value:
	// DU[defIdx] = sorted list of using instruction indices.
	DU map[int][]int
}

// callClobbered lists registers conservatively rewritten by a call.
var callClobbered = func() []isa.Reg {
	regs := []isa.Reg{RegRet, RegLink}
	for r := RegArg0; r <= RegArg5; r++ {
		regs = append(regs, r)
	}
	// r1..r8 are caller-saved temporaries in this convention.
	for r := isa.Reg(1); r <= 8; r++ {
		regs = append(regs, r)
	}
	return regs
}()

// CallClobbered exposes the caller-saved register list (used by VRP to
// invalidate ranges across calls).
func CallClobbered() []isa.Reg { return callClobbered }

// calleeVisible lists registers a callee may legitimately read: arguments,
// the stack and global pointers, and every callee-saved register (which the
// callee may spill — a full-width observation). The demand analysis treats
// a JSR as a full-width pseudo-use of these, so values flowing into calls
// are never narrowed below their significant bytes.
var calleeVisible = func() []isa.Reg {
	regs := []isa.Reg{RegSP, RegGP}
	for r := RegArg0; r <= RegArg5; r++ {
		regs = append(regs, r)
	}
	for r := isa.Reg(9); r <= 15; r++ {
		regs = append(regs, r)
	}
	for r := isa.Reg(22); r <= 25; r++ {
		regs = append(regs, r)
	}
	regs = append(regs, isa.Reg(27), isa.Reg(28))
	return regs
}()

// returnVisible lists registers a caller may read after this function
// returns: the return value, the preserved callee-saved set, and the stack
// and global pointers. RET is a full-width pseudo-use of these.
var returnVisible = func() []isa.Reg {
	regs := []isa.Reg{RegRet, RegSP, RegGP}
	for r := isa.Reg(9); r <= 15; r++ {
		regs = append(regs, r)
	}
	for r := isa.Reg(22); r <= 25; r++ {
		regs = append(regs, r)
	}
	regs = append(regs, isa.Reg(27), isa.Reg(28))
	return regs
}()

// PseudoUses returns the registers conservatively read by control-transfer
// instructions beyond their explicit operands.
func PseudoUses(op isa.Op) []isa.Reg {
	switch op {
	case isa.OpJSR:
		return calleeVisible
	case isa.OpRET:
		return returnVisible
	}
	return nil
}

// BuildDefUse computes use-def and def-use chains for f.
//
// Reaching definitions run over dense bitsets of definition ids: ids
// 0..isa.NumRegs-1 are the live-in values of each register, and after them
// comes one id per (instruction, register) definition in instruction
// order, a JSR defining every call-clobbered register.
func BuildDefUse(p *Program, f *Func) *DefUse {
	du := &DefUse{
		Fn: f,
		UD: make(map[int]map[isa.Reg][]int),
		DU: make(map[int][]int),
	}

	// Number the definitions.
	var one [1]isa.Reg
	defIns := make([]int, isa.NumRegs, isa.NumRegs+f.End-f.Start) // -1: live-in
	defReg := make([]isa.Reg, isa.NumRegs, cap(defIns))
	for r := range defIns {
		defIns[r], defReg[r] = -1, isa.Reg(r)
	}
	firstDef := make([]int, f.End-f.Start) // by instruction - f.Start
	for i := f.Start; i < f.End; i++ {
		firstDef[i-f.Start] = len(defIns)
		for _, r := range defRegs(&p.Ins[i], &one) {
			defIns = append(defIns, i)
			defReg = append(defReg, r)
		}
	}
	words := (len(defIns) + 63) / 64
	// regDefs[r*words:][:words] holds every id defining register r.
	regDefs := make([]uint64, isa.NumRegs*words)
	for id, r := range defReg {
		regDefs[int(r)*words+id/64] |= 1 << (id % 64)
	}
	define := func(set []uint64, id int) {
		mask := regDefs[int(defReg[id])*words:][:words]
		for w := range set {
			set[w] &^= mask[w]
		}
		set[id/64] |= 1 << (id % 64)
	}

	// gen[genOff[b]:genOff[b+1]] lists the last definition of each
	// register block b writes.
	genOff := make([]int, len(f.Blocks)+1)
	var gen []int
	var last [isa.NumRegs]int
	for _, b := range f.Blocks {
		for r := range last {
			last[r] = -1
		}
		for i := b.Start; i < b.End; i++ {
			for k, r := range defRegs(&p.Ins[i], &one) {
				last[r] = firstDef[i-f.Start] + k
			}
		}
		for _, id := range last {
			if id >= 0 {
				gen = append(gen, id)
			}
		}
		genOff[b.ID+1] = len(gen)
	}

	// in/out[b*words:][:words] are the definitions reaching block b's
	// entry and exit; the entry block additionally sees every live-in.
	in := make([]uint64, len(f.Blocks)*words)
	out := make([]uint64, len(f.Blocks)*words)
	cur := make([]uint64, words)
	rpo := f.RPOBlocks()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			clear(cur)
			if b == f.Blocks[0] {
				cur[0] = 1<<isa.NumRegs - 1
			}
			for _, pred := range b.Preds {
				for w, x := range out[pred.ID*words:][:words] {
					cur[w] |= x
				}
			}
			bin := in[b.ID*words:][:words]
			if !slices.Equal(cur, bin) {
				copy(bin, cur)
				changed = true
			}
			for _, id := range gen[genOff[b.ID]:genOff[b.ID+1]] {
				define(cur, id)
			}
			if bout := out[b.ID*words:][:words]; !slices.Equal(cur, bout) {
				copy(bout, cur)
				changed = true
			}
		}
	}

	// Second pass: walk each block recording UD/DU. A register's ids come
	// out in increasing order, and blocks are in address order, so every
	// UD and DU list is sorted as built.
	record := func(i int, r isa.Reg) {
		if r == isa.ZeroReg {
			return
		}
		ud := du.UD[i]
		if ud == nil {
			ud = make(map[isa.Reg][]int)
			du.UD[i] = ud
		} else if _, done := ud[r]; done {
			return
		}
		mask := regDefs[int(r)*words:][:words]
		var list []int
		for w, x := range cur {
			for x &= mask[w]; x != 0; x &= x - 1 {
				d := defIns[w*64+bits.TrailingZeros64(x)]
				list = append(list, d)
				if d >= 0 {
					du.DU[d] = append(du.DU[d], i)
				}
			}
		}
		ud[r] = list
	}
	for _, b := range f.Blocks {
		copy(cur, in[b.ID*words:][:words])
		for i := b.Start; i < b.End; i++ {
			ins := &p.Ins[i]
			uses, n := ins.Uses()
			for k := 0; k < n; k++ {
				record(i, uses[k])
			}
			for _, r := range PseudoUses(ins.Op) {
				record(i, r)
			}
			for k := range defRegs(ins, &one) {
				define(cur, firstDef[i-f.Start]+k)
			}
		}
	}
	return du
}

// defRegs returns the registers ins defines: every call-clobbered register
// for a JSR, else its destination, if any. one is scratch for the latter.
func defRegs(ins *isa.Instruction, one *[1]isa.Reg) []isa.Reg {
	if ins.Op == isa.OpJSR {
		return callClobbered
	}
	if d, ok := ins.Dest(); ok {
		one[0] = d
		return one[:]
	}
	return nil
}

// Uses returns the instructions consuming the value defined at defIdx
// (the paper's Uses(I, r)).
func (du *DefUse) Uses(defIdx int) []int { return du.DU[defIdx] }

// ReachingDefs returns the definitions reaching the use of reg at insIdx.
func (du *DefUse) ReachingDefs(insIdx int, reg isa.Reg) []int {
	m := du.UD[insIdx]
	if m == nil {
		return nil
	}
	return m[reg]
}
