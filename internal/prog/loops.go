package prog

import (
	"fmt"

	"opgate/internal/isa"
)

// Loop is a natural loop: a back edge latch→header where the header
// dominates the latch, plus every block that can reach the latch without
// passing through the header.
type Loop struct {
	Header  *Block
	Blocks  map[*Block]bool
	Latches []*Block
	Parent  *Loop // enclosing loop, or nil
	// Iter holds the affine-iterator analysis result (§2.3), if the loop
	// matches the x = x + step pattern with a constant bound.
	Iter *AffineIterator
}

// Contains reports whether the loop body includes b.
func (l *Loop) Contains(b *Block) bool { return l != nil && l.Blocks[b] }

// AffineIterator describes a loop of the paper's analysable form: an
// iterator register x with a unique in-loop update x = x + Step, an initial
// value Init established before the loop, and an exit test comparing x
// against the constant Bound. From these the loop trip count is computed
// statically (§2.3) and the iterator's value range is bounded.
type AffineIterator struct {
	Reg       isa.Reg
	Init      int64 // value of Reg on loop entry
	InitKnown bool
	Step      int64 // per-iteration increment (may be negative)
	Bound     int64 // comparison constant in the exit test
	CmpOp     isa.Op
	UpdateIdx int // instruction index of the x = x + step
	// TripCount is the number of times the update executes; valid when
	// Bounded is true.
	TripCount int64
	Bounded   bool
	// MinVal/MaxVal bound every value the iterator register takes inside
	// the loop (after the update included); valid when Bounded is true.
	MinVal, MaxVal int64
}

// String summarises the iterator for diagnostics.
func (it *AffineIterator) String() string {
	if it == nil {
		return "<none>"
	}
	if !it.Bounded {
		return fmt.Sprintf("%s += %d (unbounded)", it.Reg, it.Step)
	}
	return fmt.Sprintf("%s: init %d step %d bound %d trips %d range [%d,%d]",
		it.Reg, it.Init, it.Step, it.Bound, it.TripCount, it.MinVal, it.MaxVal)
}

// findLoops detects natural loops, builds the loop nest, and runs the
// affine-iterator analysis on each loop.
func findLoops(f *Func) {
	for _, b := range f.Blocks {
		b.Loop = nil
	}
	var loops []*Loop
	byHeader := make(map[*Block]*Loop)

	for _, b := range f.Blocks {
		for _, succ := range b.Succs {
			if !Dominates(succ, b) {
				continue
			}
			// Back edge b -> succ.
			l := byHeader[succ]
			if l == nil {
				l = &Loop{Header: succ, Blocks: map[*Block]bool{succ: true}}
				byHeader[succ] = l
				loops = append(loops, l)
			}
			l.Latches = append(l.Latches, b)
			// Collect body: reverse reachability from the latch.
			work := []*Block{b}
			for len(work) > 0 {
				n := work[len(work)-1]
				work = work[:len(work)-1]
				if l.Blocks[n] {
					continue
				}
				l.Blocks[n] = true
				for _, p := range n.Preds {
					work = append(work, p)
				}
			}
		}
	}

	// Nesting: a loop is nested in another if its header is in the other's
	// body and it has strictly fewer blocks.
	for _, inner := range loops {
		for _, outer := range loops {
			if inner == outer || !outer.Blocks[inner.Header] {
				continue
			}
			if len(outer.Blocks) <= len(inner.Blocks) {
				continue
			}
			if inner.Parent == nil || len(outer.Blocks) < len(inner.Parent.Blocks) {
				inner.Parent = outer
			}
		}
	}

	// Innermost-loop annotation on blocks.
	for _, l := range loops {
		for b := range l.Blocks {
			if b.Loop == nil || len(l.Blocks) < len(b.Loop.Blocks) {
				b.Loop = l
			}
		}
	}

	p := programOf(f)
	for _, l := range loops {
		l.Iter = analyzeIterator(p, f, l)
	}
	f.loops = loops
}

// Loops returns the natural loops of the function (set by Analyze).
func (f *Func) Loops() []*Loop { return f.loops }

// programOf walks back to the Program through any block's function; funcs
// keep no back pointer, so the caller stores it in the package-level
// analysis entry points instead. For loop analysis we thread it via the
// function's anaProg field set during Analyze.
func programOf(f *Func) *Program { return f.anaProg }

// analyzeIterator matches the paper's analysable loop shape.
//
// It requires: a unique register x whose only in-loop definition is a
// single "add x, x, #step" (or sub with constant); an exit test of the
// form "cmpXX t, x, #bound; bne/beq t, ..." in a block of the loop whose
// conditional branch leaves the loop on one edge; and, when available, a
// constant initial value found in the loop preheader. Loops with multiple
// iterators or data-dependent exits are rejected (trip count unknown).
func analyzeIterator(p *Program, f *Func, l *Loop) *AffineIterator {
	if p == nil {
		return nil
	}
	// 1. Find candidate updates: add/sub x, x, #c inside the loop. The
	// register may be defined several times only if every definition is
	// the identical update — this happens when VRS clones a region that
	// contains the update; each iteration still executes exactly one
	// copy, so the trip-count reasoning is unchanged.
	defCount := make(map[isa.Reg]int)
	type update struct {
		reg  isa.Reg
		step int64
		idx  int
	}
	var updates []update
	updCount := make(map[isa.Reg]int)
	stepsEqual := make(map[isa.Reg]bool)
	stepOf := make(map[isa.Reg]int64)
	for b := range l.Blocks {
		for i := b.Start; i < b.End; i++ {
			in := &p.Ins[i]
			d, ok := in.Dest()
			if !ok {
				continue
			}
			defCount[d]++
			if in.HasImm && in.Ra == d {
				var step int64
				matched := true
				switch in.Op {
				case isa.OpADD, isa.OpLDA:
					step = in.Imm
				case isa.OpSUB:
					step = -in.Imm
				default:
					matched = false
				}
				if matched {
					updates = append(updates, update{d, step, i})
					updCount[d]++
					if prev, seen := stepOf[d]; seen {
						stepsEqual[d] = stepsEqual[d] && prev == step
					} else {
						stepOf[d] = step
						stepsEqual[d] = true
					}
				}
			}
		}
	}

	// 2. Find the exit test: a conditional branch in the loop with one
	// successor outside, fed by a compare of a candidate register against
	// a constant.
	seen := make(map[isa.Reg]bool)
	for _, u := range updates {
		if seen[u.reg] {
			continue
		}
		seen[u.reg] = true
		// Every in-loop definition of the register must be an identical
		// update instruction.
		if defCount[u.reg] != updCount[u.reg] || !stepsEqual[u.reg] || u.step == 0 {
			continue
		}
		it := matchExitTest(p, l, u.reg, u.step, u.idx)
		if it == nil {
			continue
		}
		// 3. Initial value: constant def of reg in the preheader.
		if pre := preheader(l); pre != nil {
			if v, ok := constDefBefore(p, pre, u.reg); ok {
				it.Init = v
				it.InitKnown = true
				computeTripCount(it)
			}
		}
		return it
	}
	return nil
}

// preheader returns the unique out-of-loop predecessor of the header.
func preheader(l *Loop) *Block {
	var pre *Block
	for _, p := range l.Header.Preds {
		if l.Blocks[p] {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	return pre
}

// constDefBefore scans the block backwards for a constant definition of
// reg ("lda reg, #c(rz)").
func constDefBefore(p *Program, b *Block, reg isa.Reg) (int64, bool) {
	for i := b.End - 1; i >= b.Start; i-- {
		in := &p.Ins[i]
		d, ok := in.Dest()
		if !ok || d != reg {
			continue
		}
		if in.Op == isa.OpLDA && in.Ra == isa.ZeroReg {
			return in.Imm, true
		}
		return 0, false
	}
	// Not defined here; a single further hop through a straight-line
	// predecessor is attempted (common when the assembler splits setup).
	if len(b.Preds) == 1 && len(b.Preds[0].Succs) == 1 {
		return constDefBefore(p, b.Preds[0], reg)
	}
	return 0, false
}

// matchExitTest looks for "cmpXX t, x, #bound" + conditional branch on t
// where the branch has an exit edge.
func matchExitTest(p *Program, l *Loop, x isa.Reg, step int64, updateIdx int) *AffineIterator {
	for b := range l.Blocks {
		t := b.Terminator(p)
		if t == nil || !isa.IsCondBranch(t.Op) {
			continue
		}
		hasExit := false
		for _, s := range b.Succs {
			if !l.Blocks[s] {
				hasExit = true
			}
		}
		if !hasExit || b.Len() < 2 {
			continue
		}
		cmp := &p.Ins[b.End-2]
		if isa.ClassOf(cmp.Op) != isa.ClassCmp || !cmp.HasImm {
			continue
		}
		if cmp.Ra != x || cmp.Rd != t.Ra {
			continue
		}
		return &AffineIterator{
			Reg:       x,
			Step:      step,
			Bound:     cmp.Imm,
			CmpOp:     cmp.Op,
			UpdateIdx: updateIdx,
		}
	}
	return nil
}

// computeTripCount derives the trip count and iterator range for the
// matched shape, assuming the canonical loop rotation "do body; x+=step;
// if (x cmp bound) continue". Non-progressing or immediately-false shapes
// leave Bounded false (worst case assumed by VRP, per the paper).
func computeTripCount(it *AffineIterator) {
	if it.Step == 0 || !it.InitKnown {
		return
	}
	// The iterator takes values init, init+step, ... while the continue
	// condition holds for the *updated* value. Derive the last value.
	cont := func(v int64) bool {
		switch it.CmpOp {
		case isa.OpCMPLT:
			return v < it.Bound
		case isa.OpCMPLE:
			return v <= it.Bound
		case isa.OpCMPULT:
			return uint64(v) < uint64(it.Bound)
		case isa.OpCMPULE:
			return uint64(v) <= uint64(it.Bound)
		case isa.OpCMPEQ:
			return v == it.Bound
		}
		return false
	}
	// Closed form for the common monotone cases; bail out to unbounded
	// when progress toward the bound is not guaranteed.
	switch it.CmpOp {
	case isa.OpCMPLT, isa.OpCMPLE, isa.OpCMPULT, isa.OpCMPULE:
		if it.Step < 0 {
			return // moving away from an upper bound
		}
	case isa.OpCMPEQ:
		return // equality-exit loops are data dependent in general
	}
	first := it.Init + it.Step
	if !cont(first) {
		it.TripCount = 1
		it.Bounded = true
		it.MinVal = min64(it.Init, first)
		it.MaxVal = max64(it.Init, first)
		return
	}
	// v_n = init + n*step; find largest n with cont(v_n). For the signed
	// monotone increasing case: v_n <= bound(-ish).
	limit := it.Bound
	if it.CmpOp == isa.OpCMPLT || it.CmpOp == isa.OpCMPULT {
		limit = it.Bound - 1
	}
	if limit < first {
		it.TripCount = 1
	} else {
		n := (limit - it.Init) / it.Step // number of steps staying in range
		it.TripCount = n + 1             // update executes once more to exit
	}
	last := it.Init + it.TripCount*it.Step
	it.Bounded = true
	it.MinVal = min64(it.Init, last)
	it.MaxVal = max64(it.Init, last)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
